// pronghorn_eval: full-evaluation runner (artifact parity).
//
// Reproduces the paper artifact's `run.sh evaluation` flow: runs every
// (benchmark x strategy x eviction-rate) combination of §5.1 and writes one
// per-request CSV per combination into an output directory, plus a
// summary.csv with the medians and improvement percentages that Figures 4/5
// aggregate. The CSVs use the same schema as tools/pronghorn_sim --csv.
//
//   pronghorn_eval --out results --requests 500 --seed 91

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>

#include "src/common/flags.h"
#include "src/platform/analysis.h"
#include "src/platform/evaluation.h"
#include "src/platform/report_io.h"

using namespace pronghorn;

namespace {

int Fail(const Status& status) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  FlagParser flags;
  flags.AddFlag("out", "results", "output directory for CSV files");
  flags.AddFlag("requests", "500", "invocations per combination");
  flags.AddFlag("seed", "91", "experiment seed base");
  flags.AddSwitch("help", "show usage");
  if (Status s = flags.Parse(argc - 1, argv + 1); !s.ok()) {
    std::fprintf(stderr, "%s\n%s", s.ToString().c_str(),
                 flags.UsageText("pronghorn_eval").c_str());
    return 2;
  }
  if (flags.GetBool("help").value_or(false)) {
    std::printf("%s", flags.UsageText("pronghorn_eval").c_str());
    return 0;
  }

  const std::string out_dir = *flags.GetString("out");
  const uint64_t requests = static_cast<uint64_t>(*flags.GetInt("requests"));
  const uint64_t seed_base = static_cast<uint64_t>(*flags.GetInt("seed"));
  std::error_code ec;
  std::filesystem::create_directories(out_dir, ec);
  if (ec) {
    return Fail(InternalError("cannot create '" + out_dir + "': " + ec.message()));
  }

  const auto profiles = WorkloadRegistry::Default().EvaluationSet();
  auto matrix = RunEvaluationMatrix(profiles, kPaperEvictions, requests, seed_base);
  if (!matrix.ok()) {
    return Fail(matrix.status());
  }

  // summary.csv: one row per combination plus improvement columns.
  const std::string summary_path = out_dir + "/summary.csv";
  std::ofstream summary(summary_path, std::ios::trunc);
  if (!summary) {
    return Fail(InternalError("cannot open " + summary_path));
  }
  summary << "benchmark,policy,eviction_k,median_us,p90_us,checkpoints,"
             "store_logical_bytes,store_physical_bytes,store_dedup_ratio,"
             "improvement_vs_after_first_pct\n";
  for (const EvaluationRow& row : matrix->rows) {
    const std::string& name = row.profile->name;
    for (size_t p = 0; p < row.reports.size(); ++p) {
      const SimulationReport& report = row.reports[p];
      const std::string file = out_dir + "/" + name + "_" + std::string(kPaperPolicies[p]) +
                               "_evict" + std::to_string(row.eviction_k) + ".csv";
      if (Status s = WriteRecordsCsv(report, file); !s.ok()) {
        return Fail(s);
      }
      // Storage accounting is the digest-excluded physical view; flat runs
      // mirror logical and leave the dedup ratio at 1.
      const DistributionSummary latency = report.LatencySummary();
      const StoreAccounting& store = report.object_store;
      summary << name << ',' << kPaperPolicies[p] << ',' << row.eviction_k << ','
              << latency.Median() << ',' << latency.Quantile(90) << ','
              << report.checkpoints << ',' << store.logical_bytes_stored << ','
              << store.physical.bytes_stored << ',' << store.physical.DedupRatio() << ','
              << MedianImprovementPercent(row.reports[1], report) << '\n';
    }
    std::printf(".");
  }
  std::printf("\n");
  summary.flush();

  std::printf("wrote %zu per-request CSVs and %s\n",
              matrix->rows.size() * std::size(kPaperPolicies), summary_path.c_str());
  for (const EvaluationHeadline& headline : matrix->headlines) {
    std::printf("eviction %2u: %zu/%zu benchmarks improved >5%%, geomean %.1f%%\n",
                headline.eviction_k, headline.winners.size(), profiles.size(),
                headline.geomean_percent);
  }
  std::printf("(paper: 9/13 better at eviction 1 with geomean 37.2%%; 22.5%% at 4; "
              "13.5%% at 20)\n");
  return 0;
}
