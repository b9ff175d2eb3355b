//===- perfbench/src/RejectSet.h - Known-buggy programs ---------*- C++ -*-===//
//
// Part of fcsl-cpp's verdict benchmark. The reject set: deliberately
// broken programs, built from the public API, that the verifier must
// refuse under every flag set — each with its counterexample.
//
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_REJECTSET_H
#define PERFBENCH_REJECTSET_H

#include <functional>
#include <string>
#include <vector>

namespace perfbench {

/// How one mutant was refused.
struct Rejection {
  bool Rejected = false;
  /// The refusal carries the evidence its kind promises: a non-empty
  /// FailureTrace for an unsafe run, a FailureNote naming the violated
  /// postcondition, a counterexample for a failed action obligation.
  bool Evidence = false;
  std::string Detail; ///< what was wrong, when the answer is not known.
};

struct Mutant {
  std::string Name;
  /// Discharges the mutant under the process-default POR and symmetry
  /// modes, inside benchmark spans.
  std::function<Rejection()> Check;
};

/// Builds the four mutants: span without edge pruning, span that prunes
/// unconditionally, a self-attributing flat combiner, and a racy
/// non-atomic increment.
std::vector<Mutant> buildRejectSet();

} // namespace perfbench

#endif // PERFBENCH_REJECTSET_H
