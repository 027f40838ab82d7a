"""Fresh-process set-up probe for the benchmark's setup_s metric.

    python3 perfbench/setup_probe.py <workload> <seed> <data.csv> <t0>

<t0> is the parent's time.monotonic() just before it started this
process (the clock is system-wide). The probe imports marketgan, ingests
and windows the data, builds the networks and runs training until the
first parameter update has finished, then prints the seconds since <t0>.
"""

import sys
import time


class _FirstUpdate(Exception):
    pass


def _stop(_record):
    raise _FirstUpdate


def main() -> int:
    name, seed, data, t0 = sys.argv[1], int(sys.argv[2]), sys.argv[3], float(sys.argv[4])
    from marketgan import market_data, training

    import workloads

    workload = workloads.WORKLOADS[name]
    returns = market_data.load_return_series(data)
    dataset = market_data.normalize_and_window(returns.values, workload.seq_len,
                                               workload.stride)
    config = training.TrainConfig.from_flat(workload.flat_config(seed, epochs=1))
    try:
        training.train(config, dataset, record_hook=_stop)
    except _FirstUpdate:
        print(repr(time.monotonic() - t0))
        return 0
    return 1


if __name__ == "__main__":
    sys.exit(main())
