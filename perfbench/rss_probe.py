"""Print the peak resident KiB of this process after one repetition.

Usage: python3 perfbench/rss_probe.py <workload> <seed>
"""

import resource
import sys

from run import import_program


def main():
    workload, seed = sys.argv[1], int(sys.argv[2])
    tokendcf = import_program()
    from workloads import workload_config
    tokendcf.run_scenario(workload_config(workload, seed))
    print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)


if __name__ == "__main__":
    main()
