// Figure 5: CDFs of end-to-end request latency (microseconds) for the four
// Java benchmarks across the three orchestration strategies and three
// container eviction rates, 500 invocations each (W = 200 for the JVM).

#include "bench/exhibit_common.h"

namespace pronghorn::bench {
namespace {

const char* kBenchmarks[] = {"MatrixMult", "Hash", "HTMLRendering", "WordCount"};

void RunExhibit() {
  const EvaluationMatrix matrix = PrintEvaluationMatrix(kBenchmarks, /*seed_base=*/57);
  std::printf("\n=== Java headline aggregation ===\n");
  for (const EvaluationHeadline& headline : matrix.headlines) {
    std::printf("eviction %2u: %zu/4 better, geomean improvement %.1f%%\n",
                headline.eviction_k, headline.winners.size(), headline.geomean_percent);
  }
  std::printf("(paper: MatrixMult/Hash/HTMLRendering clear benefit to p90 at\n"
              " eviction 1 with median improvements of 24.8%%/36.8%%/58.9%%)\n");
}

}  // namespace
}  // namespace pronghorn::bench

int main() {
  std::printf("=== Figure 5: Java benchmark latency CDFs (us) ===\n");
  pronghorn::bench::RunExhibit();
  return 0;
}
