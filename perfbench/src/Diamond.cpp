//===- perfbench/src/Diamond.cpp - The diamond-3 engine workload ----------===//
//
// Part of fcsl-cpp's verdict benchmark. One closed-world span_root
// exploration of the three-diamond graph, called directly through
// explore(), alternately at Jobs 1 and Jobs 4. The engine, the visited
// set, the intern arenas and worker scaling do nearly all the work; no
// spec, stability or cache code runs.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"
#include "Trace.h"

#include "graph/GraphGen.h"
#include "prog/Engine.h"
#include "structures/SpanTree.h"
#include "support/Intern.h"

#include <cstdio>
#include <memory>

using namespace fcsl;
using namespace perfbench;

namespace {

/// 1 -> (2, 3); 2 -> 4; 3 -> 4; 4 -> (5, 6); ... a chain of diamonds.
Heap diamondOf(unsigned Layers) {
  std::vector<GraphNode> Nodes;
  uint32_t Id = 1;
  for (unsigned L = 0; L < Layers; ++L) {
    Nodes.push_back(GraphNode{Ptr(Id), Ptr(Id + 1), Ptr(Id + 2)});
    Nodes.push_back(GraphNode{Ptr(Id + 1), Ptr(Id + 3), Ptr::null()});
    Nodes.push_back(GraphNode{Ptr(Id + 2), Ptr(Id + 3), Ptr::null()});
    Id += 3;
  }
  Nodes.push_back(GraphNode{Ptr(Id), Ptr::null(), Ptr::null()});
  return buildGraph(Nodes);
}

struct Instance {
  SpanTreeCase Case;
  ProgRef Main;
  GlobalState Initial;
};

std::unique_ptr<Instance> buildInstance() {
  auto I = std::make_unique<Instance>();
  I->Case = makeSpanTreeCase(1, 2);
  I->Main = makeSpanRootProg(I->Case, Ptr(1));
  I->Initial = spanRootState(I->Case, diamondOf(3));
  return I;
}

bool sameTerminals(const std::vector<Terminal> &A,
                   const std::vector<Terminal> &B) {
  if (A.size() != B.size())
    return false;
  for (size_t I = 0; I != A.size(); ++I)
    if (A[I] < B[I] || B[I] < A[I])
      return false;
  return true;
}

} // namespace

void perfbench::runDiamond3(const Options &O, Results &R) {
  // Set-up: graph, case, program and initial state, repeated for a median.
  std::vector<double> SetupS;
  std::unique_ptr<Instance> I;
  CoreRotation Cores;
  for (int Rep = 0; Rep != 100; ++Rep) {
    Cores.pinNext();
    double Start = nowUs();
    I = buildInstance();
    SetupS.push_back((nowUs() - Start) / 1e6);
  }
  Cores.release();

  auto Explore = [&](unsigned Jobs, double &Ms) {
    EngineOptions Opts;
    Opts.Ambient = I->Case.PrivOnly;
    Opts.EnvInterference = false;
    Opts.Defs = &I->Case.Defs;
    Opts.Jobs = Jobs;
    Opts.Por = PorMode::Off;
    Opts.Symmetry = SymMode::Off;
    Opts.Shards = 1;
    double Start = nowUs();
    RunResult Run;
    {
      trace::Span Sp("prog.explore");
      Run = explore(I->Main, I->Initial, Opts);
    }
    Ms = (nowUs() - Start) / 1000.0;
    return Run;
  };

  // Warm-up (cold arenas): also the reference answer every later
  // exploration at either job count must reproduce exactly.
  double WarmupMs = 0.0;
  InternStats W0 = internStats();
  RunResult Ref = Explore(1, WarmupMs);
  InternStats W1 = internStats();
  R.verdict(Ref.complete() && !Ref.Terminals.empty(),
            "diamond-3 reference exploration incomplete or unsafe");
  uint64_t Requests[4];
  for (size_t A = 0; A != 4; ++A)
    Requests[A] = arenaStat(W1, Arenas[A], false) -
                  arenaStat(W0, Arenas[A], false);

  std::vector<double> Ms[2][2]; // [traced][jobs 1 / jobs 4]
  const double Budget = O.Seconds * 1e6;
  const double Begin = nowUs();
  const int MinRounds = O.Traced ? 4 : 3;
  for (int Round = 0; Round < MinRounds || nowUs() - Begin < Budget;
       ++Round) {
    bool Traced = O.Traced && Round % 2 == 1;
    trace::enable(Traced);
    for (unsigned J : {1u, 4u}) {
      InternStats S0 = internStats();
      double T = 0.0;
      // The serial exploration rotates over the cores (a traced run visits
      // each core traced and untraced); the Jobs-4 workers are spawned with
      // every core allowed.
      if (J == 1)
        Cores.pinNext(!O.Traced || Round % 2 == 0);
      RunResult Run = Explore(J, T);
      Cores.release();
      bool Same = Run.complete() &&
                  Run.ConfigsExplored == Ref.ConfigsExplored &&
                  Run.ActionSteps == Ref.ActionSteps &&
                  Run.DedupHits == Ref.DedupHits &&
                  sameTerminals(Run.Terminals, Ref.Terminals);
      R.verdict(Same, "diamond-3 at Jobs " + std::to_string(J) +
                          " differs from the reference exploration");
      if (J == 1) {
        // Serial interning repeats exactly, cold arenas or warm.
        InternStats S1 = internStats();
        for (size_t A = 0; A != 4; ++A)
          R.verdict(arenaStat(S1, Arenas[A], false) -
                            arenaStat(S0, Arenas[A], false) ==
                        Requests[A],
                    std::string("diamond-3 ") + Arenas[A] +
                        " intern requests changed between explorations");
      }
      Ms[Traced][J == 4].push_back(T);
    }
  }
  trace::enable(false);

  R.exact("diamond3.configs", Ref.ConfigsExplored);
  R.exact("diamond3.action_steps", Ref.ActionSteps);
  R.exact("diamond3.env_steps", Ref.EnvSteps);
  R.exact("diamond3.terminals", Ref.Terminals.size());
  R.exact("diamond3.dedup_hits", Ref.DedupHits);
  R.exact("diamond3.visited_nodes", Ref.VisitedNodes);
  for (size_t A = 0; A != 4; ++A)
    R.exact(std::string("diamond3.intern_requests.") + Arenas[A], Requests[A]);

  double J1 = median(Ms[0][0]), J4 = median(Ms[0][1]);
  double Configs = static_cast<double>(Ref.ConfigsExplored);
  R.metric("setup_s", median(SetupS), "s");
  R.metric("peak_rss_mb", selfPeakRssMb(), "MB");
  R.metric("main_p50_ms", J1, "ms");
  R.metric("alt_p50_ms", J4, "ms");
  std::printf("diamond3: %zu untraced rounds; Jobs 1 %.3f ms (%.0f states/s), "
              "Jobs 4 %.3f ms (%.0f states/s)\n",
              Ms[0][0].size(), J1, Configs * 1000.0 / J1, J4,
              Configs * 1000.0 / J4);
  R.metric("bench.warmup_ms", WarmupMs, "ms");

  InternStats Now = internStats();
  uint64_t TotalRequests = 0;
  for (size_t A = 0; A != 4; ++A) {
    R.metric(std::string("support.intern.nodes.") + Arenas[A],
             double(arenaStat(Now, Arenas[A], true)), "count");
    R.metric(std::string("support.intern.requests.") + Arenas[A] +
                 ".diamond3",
             double(Requests[A]), "count");
    TotalRequests += Requests[A];
  }
  if (!O.Traced)
    return;

  R.metric("trace.overhead_ms", median(Ms[1][0]) - J1, "ms");
  R.metric("prog.configs.diamond3", Configs, "count");
  R.metric("prog.action_steps.diamond3", double(Ref.ActionSteps), "count");
  R.metric("prog.env_steps.diamond3", double(Ref.EnvSteps), "count");
  R.metric("prog.dedup_hits.diamond3", double(Ref.DedupHits), "count");
  uint64_t Steps = Ref.ActionSteps + Ref.EnvSteps;
  R.metric("prog.dedup_ratio.diamond3",
           Steps ? double(Ref.DedupHits) / Steps : 0.0, "ratio");
  R.metric("support.intern.requests_per_config.diamond3",
           double(TotalRequests) / Configs, "ratio");
  R.metric("prog.explore_ms", median(Ms[1][0]), "ms");
  R.metric("prog.visited_bytes_per_config", double(Ref.VisitedBytes) / Configs,
           "B");
  R.metric("prog.jobs4_speedup", median(Ms[1][0]) / median(Ms[1][1]), "ratio");
}
