//===- perfbench/src/Corpus.cpp - The Table-1 corpus workload -------------===//
//
// Part of fcsl-cpp's verdict benchmark. One round = the 12 sessions of
// allVerifiableSessions() in Table-1 order, serial, cache off, once with
// plain flags and once under --por=dynamic --symmetry=on, then the reject
// set under both flag sets. Every session must pass and every mutant must
// be refused with its counterexample.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"
#include "RejectSet.h"
#include "Trace.h"

#include "cache/Store.h"
#include "spec/Stability.h"
#include "structures/Suite.h"
#include "support/Intern.h"

#include <cstdio>
#include <memory>

using namespace fcsl;
using namespace perfbench;

namespace {

enum FlagSet { Plain = 0, Reduced = 1 };
const char *const FlagNames[2] = {"plain", "reduced"};
/// Table 1 category -> the layer metric its obligations are charged to.
const char *const CategoryMetric[5] = {
    "pcm.libs_ms", "concurroid.metatheory_ms", "action.checks_ms",
    "spec.stability_ms", "spec.verifier_ms"};

void setFlags(FlagSet F) {
  setDefaultPorMode(F == Reduced ? PorMode::Dynamic : PorMode::Off);
  setDefaultSymmetryMode(F == Reduced ? SymMode::On : SymMode::Off);
}

/// What the wrapped proof units report during one pass.
struct Tally {
  double CategoryMs[5] = {};
  double UnitMs = 0.0;
  std::vector<EngineCounters> PerSession;
};

/// A session rebuilt from another's units, each Run wrapped so the
/// benchmark sees every ProofUnit::Run call: its engine counters always,
/// and its span and time when tracing. Scheduling is unchanged: the
/// copy's run() discharges the same closures in the same order.
VerificationSession wrapSession(const VerificationSession &Orig,
                                std::shared_ptr<Tally> T, size_t Index) {
  VerificationSession W(Orig.program());
  for (const ProofUnit &U : Orig.units()) {
    ObCategory Cat = U.Category;
    W.addObligation(Cat, U.Name, [Run = U.Run, Cat, T, Index] {
      if (!trace::enabled()) {
        ObligationResult R = Run();
        T->PerSession[Index] += R.Counters;
        return R;
      }
      double Start = nowUs();
      ObligationResult R;
      {
        trace::Span Sp("spec.unit.run");
        R = Run();
      }
      double Ms = (nowUs() - Start) / 1000.0;
      T->CategoryMs[static_cast<size_t>(Cat)] += Ms;
      T->UnitMs += Ms;
      T->PerSession[Index] += R.Counters;
      return R;
    });
  }
  return W;
}

/// Everything the benchmark owns for one round of the corpus.
struct CorpusSetup {
  std::vector<std::string> Names;
  std::vector<VerificationSession> Sessions; ///< wrapped copies.
  std::vector<Mutant> Mutants;
  std::shared_ptr<Tally> T = std::make_shared<Tally>();
};

std::unique_ptr<CorpusSetup> buildCorpus() {
  auto C = std::make_unique<CorpusSetup>();
  std::vector<CaseEntry> Cases = allVerifiableSessions();
  C->T->PerSession.resize(Cases.size());
  for (size_t I = 0; I != Cases.size(); ++I) {
    C->Names.push_back(Cases[I].Name);
    C->Sessions.push_back(wrapSession(Cases[I].MakeSession(), C->T, I));
  }
  C->Mutants = buildRejectSet();
  return C;
}

/// One pass over the sessions under one flag set.
struct Pass {
  double Ms = 0.0;
  std::vector<double> SessionMs;
  std::vector<SessionReport> Reports;
  Tally T;
  uint64_t EngineConfigs = 0;
  uint64_t Requests[4] = {};
  PorStats Por;
  SymmetryStats Sym;
  StableInteriorCacheStats Interior;
  uint64_t StoreProbes = 0; ///< cache hits + misses: 0, the store is off.
};

Pass runPass(CorpusSetup &C, FlagSet F) {
  setFlags(F);
  Pass P;
  *C.T = Tally();
  C.T->PerSession.resize(C.Sessions.size());
  InternStats I0 = internStats();
  uint64_t Cfg0 = totalConfigsExplored();
  PorStats Por0 = porStats();
  SymmetryStats Sym0 = symmetryStats();
  StableInteriorCacheStats Int0 = stableInteriorCacheStats();
  cache::CacheStats Cache0 = cache::cacheStats();

  double Start = nowUs();
  for (const VerificationSession &S : C.Sessions) {
    double S0 = nowUs();
    {
      trace::Span Sp("spec.session.run");
      P.Reports.push_back(S.run(/*Jobs=*/1));
    }
    P.SessionMs.push_back((nowUs() - S0) / 1000.0);
  }
  P.Ms = (nowUs() - Start) / 1000.0;

  InternStats I1 = internStats();
  P.EngineConfigs = totalConfigsExplored() - Cfg0;
  for (size_t A = 0; A != 4; ++A)
    P.Requests[A] = arenaStat(I1, Arenas[A], false) -
                    arenaStat(I0, Arenas[A], false);
  PorStats Por1 = porStats();
  P.Por.RacesDetected = Por1.RacesDetected - Por0.RacesDetected;
  P.Por.BacktrackPoints = Por1.BacktrackPoints - Por0.BacktrackPoints;
  P.Por.WakeupReplays = Por1.WakeupReplays - Por0.WakeupReplays;
  P.Por.SleepHits = Por1.SleepHits - Por0.SleepHits;
  P.Por.FullExpansions = Por1.FullExpansions - Por0.FullExpansions;
  SymmetryStats Sym1 = symmetryStats();
  P.Sym.Lookups = Sym1.Lookups - Sym0.Lookups;
  P.Sym.Hits = Sym1.Hits - Sym0.Hits;
  P.Sym.Changed = Sym1.Changed - Sym0.Changed;
  P.Sym.Renames = Sym1.Renames - Sym0.Renames;
  P.Sym.Groups = Sym1.Groups - Sym0.Groups;
  StableInteriorCacheStats Int1 = stableInteriorCacheStats();
  P.Interior.Hits = Int1.Hits - Int0.Hits;
  P.Interior.Misses = Int1.Misses - Int0.Misses;
  cache::CacheStats Cache1 = cache::cacheStats();
  P.StoreProbes =
      Cache1.Hits + Cache1.Misses - Cache0.Hits - Cache0.Misses;
  P.T = *C.T;
  return P;
}

/// The exact counters of a pass: they must repeat bit-for-bit.
std::map<std::string, uint64_t> exactOf(const CorpusSetup &C, const Pass &P,
                                        FlagSet F) {
  std::map<std::string, uint64_t> E;
  std::string Fl = FlagNames[F];
  EngineCounters Sum;
  for (size_t I = 0; I != C.Sessions.size(); ++I) {
    std::string Key = "session." + slug(C.Names[I]);
    E[Key + ".obligations"] = P.Reports[I].totalObligations();
    E[Key + ".checks." + Fl] = P.Reports[I].totalChecks();
    E[Key + ".configs." + Fl] = P.T.PerSession[I].Configs;
    Sum += P.T.PerSession[I];
  }
  E[Fl + ".configs"] = Sum.Configs;
  E[Fl + ".action_steps"] = Sum.ActionSteps;
  E[Fl + ".env_steps"] = Sum.EnvSteps;
  E[Fl + ".terminals"] = Sum.Terminals;
  E[Fl + ".dedup_hits"] = Sum.DedupHits;
  E[Fl + ".engine_configs"] = P.EngineConfigs;
  for (size_t A = 0; A != 4; ++A)
    E[Fl + ".intern_requests." + Arenas[A]] = P.Requests[A];
  return E;
}

void checkPass(const CorpusSetup &C, const Pass &P, FlagSet F, Results &R) {
  for (size_t I = 0; I != C.Sessions.size(); ++I) {
    const SessionReport &Rep = P.Reports[I];
    std::string What = C.Names[I] + " (" + FlagNames[F] + ")";
    if (!Rep.AllPassed && !Rep.Failures.empty())
      What += ": " + Rep.Failures.front().substr(0, 160);
    R.verdict(Rep.AllPassed, What);
  }
  R.verdict(P.StoreProbes == 0, std::string("the cache-off ") + FlagNames[F] +
                                    " pass probed the verdict store");
}

/// The reject set under both flag sets; returns its wall time in ms.
double runReject(CorpusSetup &C, Results &R) {
  double Start = nowUs();
  for (FlagSet F : {Plain, Reduced}) {
    setFlags(F);
    for (const Mutant &M : C.Mutants) {
      Rejection Rj = M.Check();
      R.verdict(Rj.Rejected && Rj.Evidence,
                "mutant " + M.Name + " (" + FlagNames[F] + "): " + Rj.Detail);
    }
  }
  setFlags(Plain);
  return (nowUs() - Start) / 1000.0;
}

} // namespace

void perfbench::runCorpus(const Options &O, Results &R) {
  // Set-up: build every session and the reject set. Repeated so the
  // reported set-up time is a median, not one cold sample.
  std::vector<double> SetupS;
  std::unique_ptr<CorpusSetup> C;
  CoreRotation Cores;
  for (int Rep = 0; Rep != 40; ++Rep) {
    Cores.pinNext();
    double Start = nowUs();
    C = buildCorpus();
    SetupS.push_back((nowUs() - Start) / 1e6);
  }
  Cores.release();

  // Warm-up round: fills the intern arenas and the stability memo the
  // way any long-lived process has them filled. Not measured as a pass.
  double WarmStart = nowUs();
  for (FlagSet F : {Plain, Reduced})
    checkPass(*C, runPass(*C, F), F, R);
  runReject(*C, R);
  double WarmupMs = (nowUs() - WarmStart) / 1000.0;

  // Measured rounds. A traced run alternates untraced and traced rounds,
  // so the tracing overhead is measured on the same process state; each
  // core then runs one of each before the rotation moves on.
  std::vector<double> Ms[2][2]; // [traced][flag set]
  std::vector<double> RejectMs[2];
  std::vector<Pass> TracedPasses[2];
  std::map<std::string, uint64_t> Exact;
  const double Budget = O.Seconds * 1e6;
  const double Begin = nowUs();
  const int MinRounds = O.Traced ? 4 : 3;
  for (int Round = 0; Round < MinRounds || nowUs() - Begin < Budget;
       ++Round) {
    bool Traced = O.Traced && Round % 2 == 1;
    trace::enable(Traced);
    Cores.pinNext(!O.Traced || Round % 2 == 0);
    for (FlagSet F : {Plain, Reduced}) {
      Pass P = runPass(*C, F);
      checkPass(*C, P, F, R);
      std::map<std::string, uint64_t> E = exactOf(*C, P, F);
      for (const auto &KV : E) {
        auto It = Exact.find(KV.first);
        if (It == Exact.end())
          Exact.insert(KV);
        else if (It->second != KV.second)
          R.verdict(false, "exact counter " + KV.first + " changed: " +
                               std::to_string(It->second) + " -> " +
                               std::to_string(KV.second));
      }
      Ms[Traced][F].push_back(P.Ms);
      if (Traced)
        TracedPasses[F].push_back(std::move(P));
    }
    RejectMs[Traced].push_back(runReject(*C, R));
  }
  Cores.release();
  trace::enable(false);

  // Known answers beyond "every verdict is right": reduction never grows
  // the explored space, per session and per pass.
  for (size_t I = 0; I != C->Names.size(); ++I) {
    std::string Key = "session." + slug(C->Names[I]) + ".configs.";
    R.verdict(Exact[Key + "reduced"] <= Exact[Key + "plain"],
              C->Names[I] + ": reduced configs exceed plain configs");
  }
  R.verdict(Exact["reduced.engine_configs"] <= Exact["plain.engine_configs"],
            "reduced pass explores more configs than the plain pass");
  for (const auto &KV : Exact)
    R.exact(KV.first, KV.second);

  // End-to-end (untraced rounds).
  R.metric("setup_s", median(SetupS), "s");
  R.metric("peak_rss_mb", selfPeakRssMb(), "MB");
  R.metric("main_p50_ms", median(Ms[0][Plain]), "ms");
  R.metric("alt_p50_ms", median(Ms[0][Reduced]), "ms");
  std::printf("corpus: %zu untraced rounds; plain pass %.3f ms, reduced pass "
              "%.3f ms, reject set %.3f ms (medians)\n",
              Ms[0][Plain].size(), median(Ms[0][Plain]), median(Ms[0][Reduced]),
              median(RejectMs[0]));
  R.metric("corpus.reject_ms", median(RejectMs[0]), "ms");
  R.metric("bench.warmup_ms", WarmupMs, "ms");

  InternStats Now = internStats();
  for (const char *A : Arenas)
    R.metric(std::string("support.intern.nodes.") + A,
             static_cast<double>(arenaStat(Now, A, true)), "count");
  if (!O.Traced)
    return;

  // Per-layer (traced rounds).
  R.metric("trace.overhead_ms", median(Ms[1][Plain]) - median(Ms[0][Plain]),
           "ms");
  for (FlagSet F : {Plain, Reduced}) {
    const std::vector<Pass> &Ps = TracedPasses[F];
    std::string Fl = std::string(".") + FlagNames[F];
    for (size_t Cat = 0; Cat != 5; ++Cat) {
      std::vector<double> V;
      for (const Pass &P : Ps)
        V.push_back(P.T.CategoryMs[Cat]);
      R.metric(CategoryMetric[Cat] + Fl, median(V), "ms");
    }
    std::vector<double> Overhead, HitRatio;
    for (const Pass &P : Ps) {
      double RunMs = 0.0;
      for (double S : P.SessionMs)
        RunMs += S;
      Overhead.push_back(RunMs - P.T.UnitMs);
      uint64_t Probes = P.Interior.Hits + P.Interior.Misses;
      HitRatio.push_back(Probes ? double(P.Interior.Hits) / Probes : 0.0);
    }
    R.metric("spec.session_overhead_ms" + Fl, median(Overhead), "ms");
    R.metric("spec.stability.interior_hit_ratio" + Fl, median(HitRatio),
             "ratio");
    for (size_t I = 0; I != C->Names.size(); ++I) {
      std::vector<double> V;
      for (const Pass &P : Ps)
        V.push_back(P.SessionMs[I]);
      R.metric("spec.session_ms." + slug(C->Names[I]) + Fl, median(V), "ms");
    }
    // Counts repeat exactly from pass to pass (checked above); report one.
    const Pass &P = Ps.front();
    EngineCounters Sum;
    for (const EngineCounters &E : P.T.PerSession)
      Sum += E;
    R.metric("prog.configs" + Fl, double(Sum.Configs), "count");
    R.metric("prog.action_steps" + Fl, double(Sum.ActionSteps), "count");
    R.metric("prog.env_steps" + Fl, double(Sum.EnvSteps), "count");
    R.metric("prog.dedup_hits" + Fl, double(Sum.DedupHits), "count");
    uint64_t Steps = Sum.ActionSteps + Sum.EnvSteps;
    R.metric("prog.dedup_ratio" + Fl, Steps ? double(Sum.DedupHits) / Steps : 0,
             "ratio");
    uint64_t Requests = 0;
    for (size_t A = 0; A != 4; ++A) {
      R.metric(std::string("support.intern.requests.") + Arenas[A] + Fl,
               double(P.Requests[A]), "count");
      Requests += P.Requests[A];
    }
    R.metric("support.intern.requests_per_config" + Fl,
             P.EngineConfigs ? double(Requests) / P.EngineConfigs : 0,
             "ratio");
    if (F == Reduced) {
      R.metric("prog.por.config_ratio",
               double(P.EngineConfigs) /
                   double(TracedPasses[Plain].front().EngineConfigs),
               "ratio");
      R.metric("prog.por.races", double(P.Por.RacesDetected), "count");
      R.metric("prog.por.backtracks", double(P.Por.BacktrackPoints), "count");
      R.metric("prog.por.wakeup_replays", double(P.Por.WakeupReplays),
               "count");
      R.metric("prog.por.sleep_hits", double(P.Por.SleepHits), "count");
      R.metric("prog.por.full_expansions", double(P.Por.FullExpansions),
               "count");
      R.metric("prog.sym.orbit_hit_ratio",
               P.Sym.Lookups ? double(P.Sym.Hits) / P.Sym.Lookups : 0,
               "ratio");
      R.metric("prog.sym.changed", double(P.Sym.Changed), "count");
      R.metric("prog.sym.renames", double(P.Sym.Renames), "count");
      R.metric("prog.sym.groups", double(P.Sym.Groups), "count");
    }
  }
}
