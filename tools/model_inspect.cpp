//===- tools/model_inspect.cpp - TSA model file inspector -------------------===//
//
// Part of the GSTM reproduction of "Quantifying and Reducing Execution
// Variance in STM via Model Driven Commit Optimization" (CGO 2019).
//
//===----------------------------------------------------------------------===//
//
// Inspects serialized thread-state-automaton models (the analogue of the
// paper artifact's `state_data` files):
//
//   model_inspect --model=FILE [--tfactor=4] [--top=10]
//   model_inspect --model=FILE --diff=OTHER
//   model_inspect --stats=FILE
//
// Prints the state census, the analyzer verdict, the hottest states in
// the paper's notation with their high-probability destinations, and —
// with --diff — the state overlap between two models (useful for judging
// how well training inputs cover testing behaviour).
//
// --stats reads a telemetry JSON document (a runResultJson /
// experimentJson export, or a bare telemetry object), prints the abort
// breakdown by cause and site plus the retries-before-commit histogram,
// and re-verifies the breakdown invariants: each breakdown must sum
// *exactly* to the aggregate commit/abort counters. Exits non-zero on a
// mismatch, so it doubles as a consistency checker in scripts.
//
//===----------------------------------------------------------------------===//

#include "core/Analyzer.h"
#include "core/JsonExport.h"
#include "core/Tsa.h"
#include "model/Serialize.h"
#include "support/Options.h"

#include <algorithm>
#include <cstdio>
#include <unordered_set>

using namespace gstm;

static int inspect(const Tsa &Model, double Tfactor, unsigned Top) {
  AnalyzerConfig AC;
  AC.Tfactor = Tfactor;
  AnalyzerReport Report = analyzeModel(Model, AC);

  std::printf("states:           %zu\n", Model.numStates());
  std::printf("transitions:      %lu\n", Model.numTransitions());
  std::printf("approx size:      %zu bytes\n", Model.approxSizeBytes());
  std::printf("guidance metric:  %.1f%% (Tfactor %.1f) -> %s\n",
              Report.GuidanceMetricPercent, Tfactor,
              Report.Optimizable ? "guidable" : "not worth guiding");
  std::printf("mean out-degree:  %.2f (guided: %.2f)\n\n",
              Report.MeanOutDegree, Report.MeanGuidedOutDegree);

  std::vector<std::pair<uint64_t, StateId>> ByTraffic;
  for (StateId S = 0; S < Model.numStates(); ++S)
    ByTraffic.push_back({Model.outFrequency(S), S});
  std::sort(ByTraffic.rbegin(), ByTraffic.rend());

  std::printf("top %u states by outbound traffic:\n", Top);
  for (unsigned I = 0; I < Top && I < ByTraffic.size(); ++I) {
    StateId S = ByTraffic[I].second;
    std::printf("  %-28s seen %lu\n", Model.state(S).format().c_str(),
                ByTraffic[I].first);
    for (const TsaEdge &E : highProbabilitySuccessors(Model, S, Tfactor))
      std::printf("      -%.3f-> %s\n", E.Probability,
                  Model.state(E.Dest).format().c_str());
  }
  return 0;
}

static int diff(const Tsa &A, const Tsa &B) {
  size_t Shared = 0;
  for (StateId S = 0; S < A.numStates(); ++S)
    if (B.lookup(A.state(S)))
      ++Shared;
  std::printf("model A: %zu states\n", A.numStates());
  std::printf("model B: %zu states\n", B.numStates());
  std::printf("shared:  %zu (%.1f%% of A, %.1f%% of B)\n", Shared,
              A.numStates() ? 100.0 * Shared / A.numStates() : 0.0,
              B.numStates() ? 100.0 * Shared / B.numStates() : 0.0);
  std::printf("\nA guided execution driven by model A would treat %.1f%% "
              "of B's states as unknown\n(unknown states pass threads "
              "through unguided).\n",
              B.numStates()
                  ? 100.0 * (B.numStates() - Shared) / B.numStates()
                  : 0.0);
  return 0;
}

/// Finds the telemetry object in \p Doc: the document itself (bare
/// telemetry), its "telemetry" member (run export), or nullptr.
static const JsonValue *findTelemetry(const JsonValue &Doc) {
  if (Doc.find("commits") && Doc.find("abort_causes"))
    return &Doc;
  if (const JsonValue *T = Doc.find("telemetry"))
    return T;
  return nullptr;
}

static bool printAndVerifySnapshot(const char *Label,
                                   const JsonValue &Telemetry) {
  std::optional<StatsSnapshot> Snap = snapshotFromJson(Telemetry);
  if (!Snap) {
    std::fprintf(stderr, "error: '%s' is not a telemetry object\n", Label);
    return false;
  }

  std::printf("[%s]\n", Label);
  std::printf("  commits:   %lu (%lu read-only)\n", Snap->Commits,
              Snap->ReadOnlyCommits);
  std::printf("  aborts:    %lu\n", Snap->Aborts);
  std::printf("  by cause:\n");
  for (size_t C = 0; C < NumAbortCauses; ++C)
    std::printf("    %-18s %lu\n",
                abortCauseName(static_cast<AbortCauseKind>(C)),
                Snap->AbortsByCause[C]);
  std::printf("  by site:\n");
  for (size_t S = 0; S < NumAbortSites; ++S)
    std::printf("    %-18s %lu\n", abortSiteName(static_cast<AbortSite>(S)),
                Snap->AbortsBySite[S]);
  std::printf("  retries-before-commit:");
  for (size_t B = 0; B < RetryHistogramBuckets; ++B)
    std::printf(" %lu", Snap->RetryHistogram[B]);
  std::printf("\n");
  if (Snap->Attempts)
    std::printf("  attempts:  %lu (mean latency %.0f ns)\n", Snap->Attempts,
                Snap->meanAttemptNanos());
  if (Snap->CrossShardCommits || Snap->CrossShardAborts)
    std::printf("  sharding:  %lu cross-shard commits, %lu cross-shard "
                "aborts\n",
                Snap->CrossShardCommits, Snap->CrossShardAborts);

  bool Ok = true;
  if (Snap->causeTotal() != Snap->Aborts) {
    std::fprintf(stderr,
                 "MISMATCH: abort causes sum to %lu, aborts counter is "
                 "%lu\n",
                 Snap->causeTotal(), Snap->Aborts);
    Ok = false;
  }
  if (Snap->siteTotal() != Snap->Aborts) {
    std::fprintf(stderr,
                 "MISMATCH: abort sites sum to %lu, aborts counter is %lu\n",
                 Snap->siteTotal(), Snap->Aborts);
    Ok = false;
  }
  if (Snap->retryTotal() != Snap->Commits) {
    std::fprintf(stderr,
                 "MISMATCH: retry histogram sums to %lu, commits counter "
                 "is %lu\n",
                 Snap->retryTotal(), Snap->Commits);
    Ok = false;
  }
  if (Snap->ReadOnlyCommits > Snap->Commits) {
    std::fprintf(stderr,
                 "MISMATCH: %lu read-only commits exceed %lu commits\n",
                 Snap->ReadOnlyCommits, Snap->Commits);
    Ok = false;
  }
  if (Snap->CrossShardCommits > Snap->Commits) {
    std::fprintf(stderr,
                 "MISMATCH: %lu cross-shard commits exceed %lu commits\n",
                 Snap->CrossShardCommits, Snap->Commits);
    Ok = false;
  }
  if (Snap->CrossShardAborts > Snap->Aborts) {
    std::fprintf(stderr,
                 "MISMATCH: %lu cross-shard aborts exceed %lu aborts\n",
                 Snap->CrossShardAborts, Snap->Aborts);
    Ok = false;
  }
  std::printf("  invariants: %s\n\n", Ok ? "ok" : "VIOLATED");
  return Ok;
}

static int inspectStats(const std::string &Path) {
  std::optional<std::string> Text = readTextFile(Path);
  if (!Text) {
    std::fprintf(stderr, "error: cannot read '%s'\n", Path.c_str());
    return 1;
  }
  std::optional<JsonValue> Doc = parseJson(*Text);
  if (!Doc) {
    std::fprintf(stderr, "error: '%s' is not valid JSON\n", Path.c_str());
    return 1;
  }

  bool Ok = true;
  bool Found = false;
  if (const JsonValue *T = findTelemetry(*Doc)) {
    Found = true;
    Ok = printAndVerifySnapshot("telemetry", *T) && Ok;
    // Per-thread shards of a run export must themselves be consistent
    // and sum back to the aggregate.
    if (const JsonValue *PerThread = T->find("per_thread")) {
      StatsSnapshot Sum;
      for (const JsonValue &Shard : PerThread->Items)
        if (std::optional<StatsSnapshot> S = snapshotFromJson(Shard))
          Sum.merge(*S);
      std::optional<StatsSnapshot> Agg = snapshotFromJson(*T);
      if (Agg && (Sum.Commits != Agg->Commits || Sum.Aborts != Agg->Aborts)) {
        std::fprintf(stderr,
                     "MISMATCH: per-thread shards sum to %lu/%lu "
                     "commits/aborts, aggregate says %lu/%lu\n",
                     Sum.Commits, Sum.Aborts, Agg->Commits, Agg->Aborts);
        Ok = false;
      }
    }
  }
  // Experiment exports carry one telemetry object per side.
  for (const char *Side : {"default", "guided"})
    if (const JsonValue *S = Doc->find(Side))
      if (const JsonValue *T = S->find("telemetry")) {
        Found = true;
        Ok = printAndVerifySnapshot(Side, *T) && Ok;
      }

  if (!Found) {
    std::fprintf(stderr, "error: no telemetry object in '%s'\n",
                 Path.c_str());
    return 1;
  }
  return Ok ? 0 : 1;
}

int main(int Argc, char **Argv) {
  OptionSet Cli(
      "model_inspect",
      "inspect serialized TSA models and telemetry JSON exports",
      {
          {"model", "FILE", "serialized TSA model to inspect"},
          {"diff", "OTHER", "second model: report the state overlap"},
          {"tfactor", "X", "analyzer threshold factor (default 4.0)"},
          {"top", "N", "hottest states to print (default 10)"},
          {"stats", "FILE",
           "telemetry JSON: print breakdowns, verify invariants"},
      });
  Options Opts = Cli.parseOrExit(Argc, Argv);

  std::string StatsPath = Opts.getString("stats", "");
  if (!StatsPath.empty())
    return inspectStats(StatsPath);

  std::string Path = Opts.getString("model", "");
  if (Path.empty()) {
    std::fputs(Cli.usage().c_str(), stderr);
    return 1;
  }
  ModelLoadResult Model = loadModel(Path);
  if (!Model.ok()) {
    std::fprintf(stderr, "error: cannot load model '%s': %s (%s)\n",
                 Path.c_str(), modelIoStatusName(Model.Status),
                 Model.Detail.c_str());
    return 1;
  }

  std::string Other = Opts.getString("diff", "");
  if (!Other.empty()) {
    ModelLoadResult OtherModel = loadModel(Other);
    if (!OtherModel.ok()) {
      std::fprintf(stderr, "error: cannot load model '%s': %s (%s)\n",
                   Other.c_str(), modelIoStatusName(OtherModel.Status),
                   OtherModel.Detail.c_str());
      return 1;
    }
    return diff(*Model.Model, *OtherModel.Model);
  }
  return inspect(*Model.Model, Opts.getDouble("tfactor", 4.0),
                 static_cast<unsigned>(Opts.getInt("top", 10)));
}
