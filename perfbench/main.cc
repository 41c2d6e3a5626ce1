// perfbench: runs one round of one workload and prints its RoundReport as
// a single JSON line. run.py builds this binary, runs rounds for the time
// it is given and aggregates them.
//
//   perfbench --workload rpc-small|rpc-mix|kv-failover --seed N
//             [--trace [--spans FILE]]
#include <cstdio>
#include <exception>
#include <string>

#include "round.h"

int main(int argc, char** argv) {
  perfbench::Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--trace") {
      opt.traced = true;
    } else if (a == "--workload" && i + 1 < argc) {
      opt.workload = argv[++i];
    } else if (a == "--spans" && i + 1 < argc) {
      opt.spans_path = argv[++i];
    } else if (a == "--seed" && i + 1 < argc) {
      opt.seed = std::stoull(argv[++i]);
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", a.c_str());
      return 2;
    }
  }
  try {
    perfbench::RoundReport rep = opt.workload == "kv-failover"
                                     ? perfbench::run_kv(opt)
                                     : perfbench::run_rpc(opt);
    std::printf("%s\n", rep.json().c_str());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  return 0;
}
