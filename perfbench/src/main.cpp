//===- perfbench/src/main.cpp - Verdict benchmark entry point -------------===//
//
// Part of fcsl-cpp's verdict benchmark.
//
//   fcsl-perfbench --workload corpus|diamond3|daemon --seed N --seconds S
//                  --trace 0|1 --out DIR --serve PATH
//
// Runs one workload for S seconds of measurement, checks every verdict
// against its known answer, and prints one JSON object (metrics, exact
// counters, provenance) as the last line of stdout. perfbench/run.py
// builds this binary, applies the pinned exact counters, and reduces the
// object to the result line the benchmark contract asks for.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"
#include "Trace.h"

#include "cache/Store.h"
#include "prog/Engine.h"
#include "support/Intern.h"
#include "support/ThreadPool.h"

#include <algorithm>
#include <cctype>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <sstream>
#include <thread>

#include <sched.h>
#include <sys/resource.h>

using namespace perfbench;

double perfbench::nowUs() {
  static const auto Start = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - Start)
      .count();
}

void Results::metric(const std::string &Name, double Value,
                     const std::string &Unit) {
  Metrics[Name] = {Value, Unit};
}

void Results::exact(const std::string &Name, uint64_t Value) {
  Exact[Name] = Value;
}

void Results::verdict(bool Ok, const std::string &What) {
  ++Attempted;
  if (!Ok) {
    ++Failed;
    if (Errors.size() < 20)
      Errors.push_back(What);
  }
}

const char *const perfbench::Arenas[4] = {"heap", "val", "history",
                                          "pcmval"};

uint64_t perfbench::arenaStat(const fcsl::InternStats &S, const char *Arena,
                              bool Nodes) {
  for (const fcsl::InternTypeStats &T : S.PerType)
    if (T.Name == Arena)
      return Nodes ? T.Nodes : T.Requests;
  return 0;
}

namespace {

/// Escapes \p S for a JSON string literal.
std::string jsonEscape(const std::string &S) {
  std::string Out;
  for (char C : S) {
    if (C == '"' || C == '\\') {
      Out += '\\';
      Out += C;
    } else if (static_cast<unsigned char>(C) < 0x20) {
      char Buf[8];
      std::snprintf(Buf, sizeof Buf, "\\u%04x", C);
      Out += Buf;
    } else {
      Out += C;
    }
  }
  return Out;
}

} // namespace

std::string
Results::json(const std::map<std::string, std::string> &Provenance) const {
  std::ostringstream Os;
  Os << "{\"correct\": " << (Failed == 0 ? "true" : "false")
     << ", \"attempted\": " << Attempted << ", \"failed\": " << Failed
     << ", \"metrics\": {";
  bool First = true;
  for (const auto &KV : Metrics) {
    char Buf[64];
    // Full precision: the value is reported as measured.
    std::snprintf(Buf, sizeof Buf, "%.17g", KV.second.first);
    Os << (First ? "" : ", ") << '"' << KV.first << "\": {\"value\": " << Buf
       << ", \"unit\": \"" << KV.second.second << "\"}";
    First = false;
  }
  Os << "}, \"exact\": {";
  First = true;
  for (const auto &KV : Exact) {
    Os << (First ? "" : ", ") << '"' << KV.first << "\": " << KV.second;
    First = false;
  }
  Os << "}, \"provenance\": {";
  First = true;
  for (const auto &KV : Provenance) {
    Os << (First ? "" : ", ") << '"' << KV.first << "\": \""
       << jsonEscape(KV.second) << '"';
    First = false;
  }
  Os << "}, \"errors\": [";
  for (size_t I = 0; I != Errors.size(); ++I)
    Os << (I ? ", " : "") << '"' << jsonEscape(Errors[I]) << '"';
  Os << "]}";
  return Os.str();
}

double perfbench::median(std::vector<double> V) {
  if (V.empty())
    return 0.0;
  std::sort(V.begin(), V.end());
  size_t N = V.size();
  return N % 2 ? V[N / 2] : 0.5 * (V[N / 2 - 1] + V[N / 2]);
}

double perfbench::tailValue(std::vector<double> V) {
  if (V.empty())
    return 0.0;
  std::sort(V.begin(), V.end());
  return V.size() > 10 ? V[V.size() - 11] : V.back();
}

std::string perfbench::slug(const std::string &Name) {
  std::string Out;
  for (char C : Name) {
    if (std::isalnum(static_cast<unsigned char>(C)))
      Out += static_cast<char>(std::tolower(static_cast<unsigned char>(C)));
    else if (!Out.empty() && Out.back() != '_')
      Out += '_';
  }
  while (!Out.empty() && Out.back() == '_')
    Out.pop_back();
  return Out;
}

namespace {

void pinTo(const std::vector<int> &Cpus) {
  if (Cpus.empty())
    return;
  cpu_set_t Set;
  CPU_ZERO(&Set);
  for (int C : Cpus)
    CPU_SET(C, &Set);
  sched_setaffinity(0, sizeof Set, &Set);
}

} // namespace

CoreRotation::CoreRotation() {
  cpu_set_t Set;
  CPU_ZERO(&Set);
  if (sched_getaffinity(0, sizeof Set, &Set) == 0)
    for (int C = 0; C != CPU_SETSIZE; ++C)
      if (CPU_ISSET(C, &Set))
        Cpus.push_back(C);
}

void CoreRotation::pinNext(bool Advance) {
  if (Cpus.empty())
    return;
  if (Advance)
    ++Next;
  pinTo({Cpus[Next % Cpus.size()]});
}

void CoreRotation::release() { pinTo(Cpus); }

double perfbench::selfPeakRssMb() {
  struct rusage U;
  if (getrusage(RUSAGE_SELF, &U) != 0)
    return 0.0;
  return static_cast<double>(U.ru_maxrss) / 1024.0; // ru_maxrss is KiB.
}

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: fcsl-perfbench --workload corpus|diamond3|daemon "
               "--seed N --seconds S --trace 0|1 --out DIR --serve PATH\n");
  return 2;
}

/// The refusal gate: timings from a Debug or sanitizer build say nothing
/// about the shipped configuration.
const char *refusedBuild() {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return "sanitizer build";
#else
  if (std::strlen(PERFBENCH_SANITIZE) != 0)
    return "sanitizer build";
  if (std::strcmp(PERFBENCH_BUILD_TYPE, "Debug") == 0)
    return "Debug build";
#ifndef NDEBUG
  return "build with assertions";
#endif
  return nullptr;
#endif
}

/// Self time and count of every span name, printed and kept as metrics.
void reportLayers(Results &R) {
  std::map<std::string, trace::Layer> Layers = trace::summarize();
  std::printf("\nper-layer spans (self time excludes direct children):\n");
  std::printf("%-28s %10s %14s %14s\n", "span", "count", "total ms",
              "self ms");
  for (const auto &KV : Layers)
    std::printf("%-28s %10llu %14.3f %14.3f\n", KV.first.c_str(),
                static_cast<unsigned long long>(KV.second.Count),
                KV.second.TotalUs / 1000.0, KV.second.SelfUs / 1000.0);
  for (const char *Name :
       {"spec.session.run", "spec.unit.run", "spec.verify_triple",
        "action.correspondence", "prog.explore", "service.submit",
        "service.progress", "cache.serve", "cache.lookup", "codec.encode",
        "codec.decode"}) {
    auto It = Layers.find(Name);
    R.metric(std::string("trace.self_ms.") + Name,
             It == Layers.end() ? 0.0 : It->second.SelfUs / 1000.0, "ms");
  }
  R.metric("trace.spans", static_cast<double>(trace::spanCount()), "count");
}

} // namespace

int main(int Argc, char **Argv) {
  Options O;
  bool HaveTrace = false;
  for (int I = 1; I + 1 < Argc; I += 2) {
    std::string Key = Argv[I];
    const char *Val = Argv[I + 1];
    char *End = nullptr;
    if (Key == "--workload") {
      O.Workload = Val;
    } else if (Key == "--seed") {
      O.Seed = std::strtoull(Val, &End, 10);
      if (*End)
        return usage();
    } else if (Key == "--seconds") {
      O.Seconds = std::strtod(Val, &End);
      if (*End || !(O.Seconds > 0))
        return usage();
    } else if (Key == "--trace") {
      if (std::strcmp(Val, "0") != 0 && std::strcmp(Val, "1") != 0)
        return usage();
      O.Traced = Val[0] == '1';
      HaveTrace = true;
    } else if (Key == "--out") {
      O.OutDir = Val;
    } else if (Key == "--serve") {
      O.ServeBin = Val;
    } else {
      return usage();
    }
  }
  if (Argc % 2 != 1 || O.Workload.empty() || O.OutDir.empty() ||
      O.ServeBin.empty() || !HaveTrace)
    return usage();

  if (const char *Why = refusedBuild()) {
    std::fprintf(stderr, "fcsl-perfbench: refusing to measure a %s\n", Why);
    return 3;
  }

  // Every engine knob is pinned explicitly so no FCSL_* variable in the
  // caller's environment can change what is measured. The shard fleet and
  // the dist wire paths are never engaged: the distributed engine is not
  // installed and the shard count is forced to 1.
  for (const char *Var : {"FCSL_POR", "FCSL_SYMMETRY", "FCSL_CACHE",
                          "FCSL_JOBS", "FCSL_SHARDS", "FCSL_CACHE_DIR",
                          "FCSL_DIST_COMPRESS"})
    ::unsetenv(Var);
  fcsl::setDefaultShards(1);
  fcsl::setDefaultJobs(1);
  fcsl::setDefaultPorMode(fcsl::PorMode::Off);
  fcsl::setDefaultSymmetryMode(fcsl::SymMode::Off);
  fcsl::cache::setDefaultCacheMode(fcsl::cache::CacheMode::Off);

  trace::enable(false);
  nowUs();
  Results R;
  if (O.Workload == "corpus")
    runCorpus(O, R);
  else if (O.Workload == "diamond3")
    runDiamond3(O, R);
  else if (O.Workload == "daemon")
    runDaemon(O, R);
  else
    return usage();

  if (O.Traced) {
    reportLayers(R);
    std::string Path = O.OutDir + "/trace.json";
    trace::enable(false);
    if (!trace::writeChrome(Path))
      R.verdict(false, "cannot write " + Path);
    else
      std::printf("trace written to %s\n", Path.c_str());
  }
  R.metric("bench.failed_share",
           R.attempted() ? static_cast<double>(R.failed()) / R.attempted()
                         : 1.0,
           "ratio");

  std::map<std::string, std::string> Prov;
  Prov["workload"] = O.Workload;
  Prov["seed"] = std::to_string(O.Seed);
  Prov["build_type"] = PERFBENCH_BUILD_TYPE;
#ifdef __clang__
  Prov["compiler"] = std::string("clang ") + __VERSION__;
#else
  Prov["compiler"] = std::string("gcc ") + __VERSION__;
#endif
  Prov["nproc"] = std::to_string(std::thread::hardware_concurrency());
  Prov["traced"] = O.Traced ? "1" : "0";
  std::printf("%s\n", R.json(Prov).c_str());
  return 0;
}
