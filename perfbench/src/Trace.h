//===- perfbench/src/Trace.h - Benchmark-side span recorder -----*- C++ -*-===//
//
// Part of fcsl-cpp's verdict benchmark. Spans are recorded by the
// benchmark around its own calls into the library's public functions
// (VerificationSession::run, each ProofUnit::Run, explore, ...), kept in
// memory, and written out as Chrome trace-event JSON when the run ends.
// When tracing is off every entry point is a flag test and nothing else.
//
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_TRACE_H
#define PERFBENCH_TRACE_H

#include <cstdint>
#include <map>
#include <string>

namespace perfbench {
namespace trace {

void enable(bool On);
bool enabled();

/// "No explicit parent": the innermost open span on this thread.
constexpr uint64_t Inherit = ~uint64_t(0);

/// An RAII span. Its parent is the innermost span open on the calling
/// thread, or \p Parent when one is given (for work handed across threads).
class Span {
public:
  explicit Span(const char *Name, uint64_t Parent = Inherit);
  ~Span();
  Span(const Span &) = delete;
  Span &operator=(const Span &) = delete;

  uint64_t id() const { return Id; }

private:
  const char *Name;
  uint64_t Id = 0;
  uint64_t Parent = 0;
  double StartUs = 0.0;
};

/// Records a finished span with explicit bounds — for intervals the
/// benchmark reconstructs from a library report (e.g. a Progress frame's
/// own elapsed time). Returns its id (0 when tracing is off).
uint64_t record(const char *Name, double StartUs, double EndUs,
                uint64_t Parent);

/// Per-span-name totals over everything recorded: count, summed duration,
/// and self time (duration minus the part covered by direct children).
struct Layer {
  uint64_t Count = 0;
  double TotalUs = 0.0;
  double SelfUs = 0.0;
};
std::map<std::string, Layer> summarize();

/// Number of spans recorded so far.
uint64_t spanCount();

/// Writes every recorded span as Chrome trace-event JSON.
bool writeChrome(const std::string &Path);

} // namespace trace
} // namespace perfbench

#endif // PERFBENCH_TRACE_H
