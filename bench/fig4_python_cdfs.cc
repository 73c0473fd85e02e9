// Figure 4: CDFs of end-to-end request latency (microseconds) for the nine
// Python benchmarks across the three orchestration strategies and three
// container eviction rates (1, 4, 20 requests per worker), 500 invocations
// each with high input variance (§5.1).
//
// Also prints the §5.2 headline aggregation: per-benchmark median improvement
// of the request-centric policy over checkpoint-after-1st, and the geometric
// mean over winning benchmarks per eviction rate.

#include "bench/exhibit_common.h"

namespace pronghorn::bench {
namespace {

const char* kBenchmarks[] = {"BFS",      "DFS",         "DynamicHTML",
                             "MST",      "PageRank",    "Compression",
                             "Uploader", "Thumbnailer", "Video"};

void RunExhibit() {
  const EvaluationMatrix matrix = PrintEvaluationMatrix(kBenchmarks, /*seed_base=*/91);
  std::printf("\n=== Headline aggregation (paper §5.2) ===\n");
  for (const EvaluationHeadline& headline : matrix.headlines) {
    std::printf("eviction %2u: %zu/9 better (geomean improvement %.1f%%), "
                "%u on-par (within 5%%), %u worse\n",
                headline.eviction_k, headline.winners.size(), headline.geomean_percent,
                headline.on_par, headline.worse);
  }
  std::printf("(paper: geomean 37.2%% at eviction 1, 22.5%% at 4, 13.5%% at 20,\n"
              " across Python+Java winners; Uploader worse at eviction 1 and 4)\n");
}

}  // namespace
}  // namespace pronghorn::bench

int main() {
  std::printf("=== Figure 4: Python benchmark latency CDFs (us) ===\n");
  pronghorn::bench::RunExhibit();
  return 0;
}
