// The paper's §5.2 headline claims as inequalities over the Figure 4/5
// matrices, run at the exhibits' own sizes and seeds: fig4_python_cdfs
// (seed base 91) and fig5_java_cdfs (seed base 57), 500 requests per cell.
// A change that moves the simulated latencies may move every number here;
// it must keep these orderings.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <initializer_list>
#include <string>
#include <vector>

#include "src/platform/evaluation.h"

namespace pronghorn {
namespace {

EvaluationMatrix RunMatrix(std::initializer_list<const char*> names, uint64_t seed_base) {
  std::vector<const WorkloadProfile*> profiles;
  for (const char* name : names) {
    auto profile = WorkloadRegistry::Default().Find(name);
    EXPECT_TRUE(profile.ok()) << name;
    if (profile.ok()) {
      profiles.push_back(*profile);
    }
  }
  auto matrix = RunEvaluationMatrix(profiles, kPaperEvictions, kPaperRequests, seed_base);
  EXPECT_TRUE(matrix.ok()) << matrix.status().ToString();
  return matrix.ok() ? *std::move(matrix) : EvaluationMatrix{};
}

const EvaluationMatrix& Python() {
  static const EvaluationMatrix matrix =
      RunMatrix({"BFS", "DFS", "DynamicHTML", "MST", "PageRank", "Compression",
                 "Uploader", "Thumbnailer", "Video"},
                /*seed_base=*/91);
  return matrix;
}

const EvaluationMatrix& Java() {
  static const EvaluationMatrix matrix =
      RunMatrix({"MatrixMult", "Hash", "HTMLRendering", "WordCount"}, /*seed_base=*/57);
  return matrix;
}

// Every (benchmark, eviction rate) row of both matrices.
std::vector<const EvaluationRow*> AllRows() {
  std::vector<const EvaluationRow*> rows;
  for (const EvaluationMatrix* matrix : {&Python(), &Java()}) {
    for (const EvaluationRow& row : matrix->rows) {
      rows.push_back(&row);
    }
  }
  return rows;
}

double Improvement(const std::string& benchmark, uint32_t eviction_k) {
  for (const EvaluationRow* row : AllRows()) {
    if (row->profile->name == benchmark && row->eviction_k == eviction_k) {
      return row->improvement_percent;
    }
  }
  ADD_FAILURE() << "no row for " << benchmark << " at eviction " << eviction_k;
  return 0.0;
}

TEST(PaperClaimsTest, MatricesCoverEveryCell) {
  EXPECT_EQ(Python().rows.size(), 9u * 3u);
  EXPECT_EQ(Java().rows.size(), 4u * 3u);
  for (const EvaluationRow* row : AllRows()) {
    ASSERT_EQ(row->reports.size(), std::size(kPaperPolicies));
    for (const SimulationReport& report : row->reports) {
      EXPECT_EQ(report.records.size(), kPaperRequests) << row->profile->name;
    }
  }
}

TEST(PaperClaimsTest, WinnerGeomeanFallsAsWorkersLiveLonger) {
  // §5.2 "Request rates": 37.2% at eviction 1 > 22.5% at 4 > 13.5% at 20.
  for (const EvaluationMatrix* matrix : {&Python(), &Java()}) {
    ASSERT_EQ(matrix->headlines.size(), 3u);
    EXPECT_GT(matrix->headlines[0].geomean_percent, matrix->headlines[1].geomean_percent);
    EXPECT_GT(matrix->headlines[1].geomean_percent, matrix->headlines[2].geomean_percent);
  }
}

TEST(PaperClaimsTest, ComputeBoundBenchmarksWinAtEveryRate) {
  std::vector<std::string> compute_bound;
  for (const EvaluationRow* row : AllRows()) {
    if (row->profile->io_bound) {
      continue;
    }
    EXPECT_GT(row->improvement_percent, 5.0)
        << row->profile->name << " at eviction " << row->eviction_k;
    if (std::find(compute_bound.begin(), compute_bound.end(), row->profile->name) ==
        compute_bound.end()) {
      compute_bound.push_back(row->profile->name);
    }
  }
  EXPECT_EQ(compute_bound.size(), 9u);
}

TEST(PaperClaimsTest, ComputeBoundGainsDoNotGrowWithEviction) {
  // Rows are profile-major with eviction rates ascending.
  const std::vector<const EvaluationRow*> rows = AllRows();
  for (size_t i = 1; i < rows.size(); ++i) {
    if (rows[i]->profile != rows[i - 1]->profile || rows[i]->profile->io_bound) {
      continue;
    }
    EXPECT_LE(rows[i]->improvement_percent, rows[i - 1]->improvement_percent)
        << rows[i]->profile->name << " at eviction " << rows[i]->eviction_k;
  }
}

TEST(PaperClaimsTest, IoBoundBenchmarksOnParAtEvictionOne) {
  // Figure 4: the JIT has little to optimize when I/O dominates.
  for (const char* name : {"Thumbnailer", "Video", "Uploader"}) {
    EXPECT_LE(std::abs(Improvement(name, 1)), 5.0) << name;
  }
}

TEST(PaperClaimsTest, UploaderGainsLeastAtEvictionOne) {
  // §5.2: Uploader spends its time in a native library the JIT cannot help.
  const double uploader = Improvement("Uploader", 1);
  for (const EvaluationRow* row : AllRows()) {
    if (row->eviction_k == 1 && row->profile->name != "Uploader") {
      EXPECT_GT(row->improvement_percent, uploader) << row->profile->name;
    }
  }
}

TEST(PaperClaimsTest, NoBenchmarkIsWorse) {
  for (const EvaluationRow* row : AllRows()) {
    EXPECT_GE(row->improvement_percent, -5.0)
        << row->profile->name << " at eviction " << row->eviction_k;
  }
  for (const EvaluationMatrix* matrix : {&Python(), &Java()}) {
    for (const EvaluationHeadline& headline : matrix->headlines) {
      EXPECT_EQ(headline.worse, 0u) << "eviction " << headline.eviction_k;
    }
  }
}

}  // namespace
}  // namespace pronghorn
