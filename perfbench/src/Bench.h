//===- perfbench/src/Bench.h - Shared benchmark plumbing --------*- C++ -*-===//
//
// Part of fcsl-cpp's verdict benchmark. fcsl-perfbench measures the library
// from the outside: it calls public entry points, times them, and reads
// the public counter APIs before and after. Nothing in src/ is touched.
//
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_BENCH_H
#define PERFBENCH_BENCH_H

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace fcsl {
struct InternStats;
}

namespace perfbench {

/// Monotonic microseconds since the first call in this process.
double nowUs();

/// What the command line asked for.
struct Options {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10.0;
  bool Traced = false;
  std::string OutDir; ///< where run artifacts (trace, store, socket) go.
  std::string ServeBin; ///< path of the fcsl-serve binary.
};

/// One run's results: metrics (timed, vary run to run), exact counters
/// (must repeat bit-for-bit), and the verdict tally.
class Results {
public:
  void metric(const std::string &Name, double Value, const std::string &Unit);
  void exact(const std::string &Name, uint64_t Value);
  /// Records one attempted operation; a false \p Ok counts it as failed
  /// and keeps \p What for the report.
  void verdict(bool Ok, const std::string &What);
  /// Records \p N operations that each succeeded.
  void passed(uint64_t N) { Attempted += N; }

  uint64_t attempted() const { return Attempted; }
  uint64_t failed() const { return Failed; }

  /// Renders everything as one JSON object (see run.py for the schema).
  std::string json(const std::map<std::string, std::string> &Provenance)
      const;

private:
  std::map<std::string, std::pair<double, std::string>> Metrics;
  std::map<std::string, uint64_t> Exact;
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  std::vector<std::string> Errors;
};

/// Median of \p V (0 when empty).
double median(std::vector<double> V);
/// The highest percentile with at least ten samples beyond it: the
/// eleventh-largest sample (the largest when fewer than eleven exist).
double tailValue(std::vector<double> V);

/// Lower-case, underscore-joined form of a session name for metric keys
/// ("CG increment" -> "cg_increment", "Prod/Cons" -> "prod_cons").
std::string slug(const std::string &Name);

/// The intern arenas, by the names internStats() reports them under.
extern const char *const Arenas[4];
/// One arena's intern() calls (or, with \p Nodes, its distinct nodes).
uint64_t arenaStat(const fcsl::InternStats &S, const char *Arena, bool Nodes);

/// Spreads single-threaded samples evenly over the CPUs this process may
/// use. On a shared host the cores run at different speeds (neighbours
/// differ per core), so a series that stays on one core measures that core
/// rather than the program.
class CoreRotation {
public:
  CoreRotation();
  /// Pins the calling thread to the next allowed CPU, round robin, or
  /// back to the current one when \p Advance is false.
  void pinNext(bool Advance = true);
  /// Lets the calling thread run on every allowed CPU again.
  void release();

private:
  std::vector<int> Cpus;
  size_t Next = 0;
};

/// Peak resident set of this process, in megabytes.
double selfPeakRssMb();

/// Workloads. Each fills \p R and leaves the process quiescent.
void runCorpus(const Options &O, Results &R);
void runDiamond3(const Options &O, Results &R);
void runDaemon(const Options &O, Results &R);

} // namespace perfbench

#endif // PERFBENCH_BENCH_H
