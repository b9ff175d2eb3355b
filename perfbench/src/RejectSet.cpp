//===- perfbench/src/RejectSet.cpp - Known-buggy programs -----------------===//
//
// Part of fcsl-cpp's verdict benchmark. The programs mirror the mutation
// tests of tests/soundness_test.cpp; they are rebuilt here so the
// benchmark depends only on the library's public headers.
//
//===----------------------------------------------------------------------===//

#include "RejectSet.h"
#include "Trace.h"

#include "action/ActionChecks.h"
#include "graph/GraphGen.h"
#include "graph/GraphPredicates.h"
#include "spec/Verifier.h"
#include "structures/FlatCombiner.h"
#include "structures/SpanTree.h"

#include <memory>

using namespace fcsl;
using namespace perfbench;

namespace {

constexpr Label Pv = 1;
constexpr Label Sec = 2;

/// A postcondition failure is evidenced by a note naming the postcondition.
Rejection postRejection(const VerifyResult &R, const Spec &S) {
  Rejection Out;
  Out.Rejected = !R.Holds;
  Out.Evidence =
      R.FailureNote.find("postcondition " + S.PostName) != std::string::npos;
  if (!Out.Rejected || !Out.Evidence)
    Out.Detail = R.Holds ? "accepted" : "note lacks postcondition: " +
                                            R.FailureNote.substr(0, 120);
  return Out;
}

/// A buggy `span` body. \p PruneAlways nullifies both edges whatever the
/// children answered; otherwise the edges are never pruned.
ProgRef buggySpanBody(const SpanTreeCase &Case, bool PruneAlways) {
  ExprRef X = Expr::var("x");
  ProgRef Children = Prog::par(Prog::call("span", {Expr::var("xl")}),
                               Prog::call("span", {Expr::var("xr")}));
  ProgRef Tail = Prog::ret(Expr::litBool(true));
  if (PruneAlways)
    Tail = Prog::seq(Prog::act(Case.NullifyL, {X}),
                     Prog::seq(Prog::act(Case.NullifyR, {X}), Tail));
  return Prog::ifThenElse(
      Expr::isNull(X), Prog::ret(Expr::litBool(false)),
      Prog::bind(
          Prog::act(Case.TryMark, {X}), "b",
          Prog::ifThenElse(
              Expr::var("b"),
              Prog::bind(Prog::act(Case.ReadChildL, {X}), "xl",
                         Prog::bind(Prog::act(Case.ReadChildR, {X}), "xr",
                                    Prog::seq(Children, Tail))),
              Prog::ret(Expr::litBool(false)))));
}

Mutant spanMutant(const char *Name, bool PruneAlways) {
  auto Case = std::make_shared<SpanTreeCase>(makeSpanTreeCase(Pv, Sec));
  Case->Defs.define("span", FuncDef{{"x"}, buggySpanBody(*Case, PruneAlways)});
  auto S = std::make_shared<Spec>();
  S->Name = Name;
  S->C = Case->PrivOnly;
  S->Pre = assertTrue();
  S->PostName = "the result is a spanning tree";
  S->Post = [](const Val &, const View &, const View &F) {
    const Heap &G = F.self(Pv).getHeap();
    PtrSet All;
    for (const auto &Cell : G)
      All.insert(Cell.first);
    return isTreeIn(G, Ptr(1), All);
  };
  ProgRef Main = makeSpanRootProg(*Case, Ptr(1));
  GlobalState Init = spanRootState(*Case, figure2Graph());
  return Mutant{Name, [Case, S, Main, Init] {
                  EngineOptions Opts;
                  Opts.Ambient = Case->PrivOnly;
                  Opts.EnvInterference = false;
                  Opts.Defs = &Case->Defs;
                  trace::Span Sp("spec.verify_triple");
                  return postRejection(
                      verifyTriple(Main, *S, {VerifyInstance{Init, {}}}, Opts),
                      *S);
                }};
}

/// A combiner that executes a published request but appends the operation
/// to its *own* history instead of the requester's slot. No FlatCombine
/// transition covers the step (action correspondence fails), and running
/// it breaks the structure's coherence (the exploration is unsafe).
Mutant selfishCombinerMutant() {
  auto Case = std::make_shared<FlatCombinerCase>(
      makeFlatCombinerCase(Pv, /*EnvHistCap=*/0));
  Label Fc = Case->Fc;
  Ptr StkP = Case->StackCell;
  ActionRef Selfish = makeAction(
      "selfish_combine", Case->C, 1,
      [Fc, StkP](const View &Pre, const std::vector<Val> &Args)
          -> std::optional<std::vector<ActOutcome>> {
        if (!Args[0].isPtr() || !Pre.self(Fc).first().isOwn())
          return std::nullopt;
        const Val *Slot = Pre.joint(Fc).tryLookup(Args[0].getPtr());
        if (!Slot || !Slot->isPair() || !Slot->first().isInt())
          return std::nullopt;
        Val Before = Pre.joint(Fc).lookup(StkP);
        Val After = Val::pair(Slot->second(), Before);
        View Post = Pre;
        Heap Joint = Pre.joint(Fc);
        Joint.update(StkP, After);
        Joint.update(Args[0].getPtr(), Val::unit());
        Post.setJoint(Fc, std::move(Joint));
        History Mine = Pre.self(Fc).second().second().getHist();
        Mine.add(1, HistEntry{Before, After}); // the bug: claims the credit
        PCMVal Aux = PCMVal::makePair(Pre.self(Fc).second().first(),
                                      PCMVal::ofHist(std::move(Mine)));
        Post.setSelf(Fc, PCMVal::makePair(Pre.self(Fc).first(), Aux));
        return std::vector<ActOutcome>{{Val::unit(), std::move(Post)}};
      });

  // The environment has published a push request; I hold the lock.
  GlobalState GS = flatCombinerState(*Case, 1);
  Heap Joint = GS.joint(Fc);
  Joint.update(Case->LockCell, Val::ofBool(true));
  Joint.update(Case->Slot2, Val::pair(Val::ofInt(FcPush), Val::ofInt(3)));
  GS.setJoint(Fc, std::move(Joint));
  GS.setSelf(Fc, rootThread(),
             PCMVal::makePair(PCMVal::mutexOwn(),
                              PCMVal::makePair(
                                  PCMVal::singletonPtr(Case->Slot1),
                                  PCMVal::ofHist(History()))));
  View Sample = GS.viewFor(rootThread());
  ProgRef Main = Prog::act(Selfish, {Expr::litPtr(Case->Slot2)});
  Val Target = Val::ofPtr(Case->Slot2);

  return Mutant{"selfish_combiner", [Case, Selfish, GS, Sample, Main,
                                     Target] {
                  Rejection Out;
                  MetaReport M;
                  {
                    trace::Span Sp("action.correspondence");
                    M = checkActionCorrespondence(*Selfish, {Sample},
                                                  {{Target}});
                  }
                  EngineOptions Opts;
                  Opts.Ambient = Case->C;
                  Opts.EnvInterference = false;
                  RunResult Run;
                  {
                    trace::Span Sp("prog.explore");
                    Run = explore(Main, GS, Opts);
                  }
                  Out.Rejected = !M.Passed && !Run.Safe;
                  Out.Evidence =
                      !M.CounterExample.empty() && !Run.FailureTrace.empty();
                  if (!Out.Rejected || !Out.Evidence)
                    Out.Detail = std::string("correspondence ") +
                                 (M.Passed ? "passed" : "failed") +
                                 ", exploration " +
                                 (Run.Safe ? "safe" : "unsafe") + ", trace " +
                                 std::to_string(Run.FailureTrace.size()) +
                                 " steps";
                  return Out;
                }};
}

/// Increment as an unsynchronized read followed by a write: two parallel
/// increments can lose one update, so "the counter reads 2" fails.
Mutant racyIncrementMutant() {
  auto Coh = [](const View &S) {
    return S.hasLabel(Sec) && S.joint(Sec).contains(Ptr(1));
  };
  auto C = makeConcurroid("RacyCell", {OwnedLabel{Sec, "rc", PCMType::nat()}},
                          Coh);
  C->addTransition(Transition(
      "scribble", TransitionKind::Internal, nullptr,
      [](const View &Pre, const View &Post) {
        for (Label L : Pre.labels())
          if (L != Sec && !(Pre.slice(L) == Post.slice(L)))
            return false;
        return Pre.other(Sec) == Post.other(Sec);
      },
      /*EnvEnabled=*/false));
  ConcurroidRef CC = C;
  ActionRef Read = makeAction(
      "racy_read", CC, 0,
      [](const View &Pre, const std::vector<Val> &)
          -> std::optional<std::vector<ActOutcome>> {
        return std::vector<ActOutcome>{{Pre.joint(Sec).lookup(Ptr(1)), Pre}};
      });
  ActionRef Write = makeAction(
      "racy_write", CC, 1,
      [](const View &Pre, const std::vector<Val> &Args)
          -> std::optional<std::vector<ActOutcome>> {
        View Post = Pre;
        Heap Joint = Pre.joint(Sec);
        Joint.update(Ptr(1), Args[0]);
        Post.setJoint(Sec, std::move(Joint));
        return std::vector<ActOutcome>{{Val::unit(), std::move(Post)}};
      });
  auto Defs = std::make_shared<DefTable>();
  Defs->define("racy_incr",
               FuncDef{{},
                       Prog::bind(Prog::act(Read, {}), "v",
                                  Prog::act(Write, {Expr::add(
                                                       Expr::var("v"),
                                                       Expr::litInt(1))}))});
  auto S = std::make_shared<Spec>();
  S->Name = "racy_parallel_incr";
  S->C = CC;
  S->Pre = assertTrue();
  S->PostName = "the counter reads 2";
  S->Post = [](const Val &, const View &, const View &F) {
    return F.joint(Sec).lookup(Ptr(1)) == Val::ofInt(2);
  };
  GlobalState GS;
  GS.addLabel(Sec, PCMType::nat(), Heap::singleton(Ptr(1), Val::ofInt(0)),
              PCMVal::ofNat(0), false);
  ProgRef Main =
      Prog::par(Prog::call("racy_incr", {}), Prog::call("racy_incr", {}));
  return Mutant{"racy_increment", [CC, Defs, S, GS, Main] {
                  EngineOptions Opts;
                  Opts.Ambient = CC;
                  Opts.EnvInterference = false;
                  Opts.Defs = Defs.get();
                  trace::Span Sp("spec.verify_triple");
                  return postRejection(
                      verifyTriple(Main, *S, {VerifyInstance{GS, {}}}, Opts),
                      *S);
                }};
}

} // namespace

std::vector<Mutant> perfbench::buildRejectSet() {
  std::vector<Mutant> Out;
  Out.push_back(spanMutant("span_no_pruning", /*PruneAlways=*/false));
  Out.push_back(spanMutant("span_prune_always", /*PruneAlways=*/true));
  Out.push_back(selfishCombinerMutant());
  Out.push_back(racyIncrementMutant());
  return Out;
}
