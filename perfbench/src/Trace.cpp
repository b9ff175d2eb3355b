//===- perfbench/src/Trace.cpp - Benchmark-side span recorder -------------===//
//
// Part of fcsl-cpp's verdict benchmark.
//
//===----------------------------------------------------------------------===//

#include "Trace.h"
#include "Bench.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <mutex>
#include <unordered_map>
#include <vector>

using namespace perfbench;

namespace {

struct Event {
  const char *Name;
  uint64_t Id;
  uint64_t Parent;
  double StartUs;
  double EndUs;
  uint32_t Tid;
};

std::atomic<bool> On{false};
std::atomic<uint64_t> NextId{1};
std::atomic<uint32_t> NextTid{1};
std::mutex M;
std::vector<Event> Events;

thread_local std::vector<uint64_t> Open;
thread_local uint32_t Tid = 0;

uint32_t threadId() {
  if (!Tid)
    Tid = NextTid.fetch_add(1);
  return Tid;
}

void push(const Event &E) {
  std::lock_guard<std::mutex> L(M);
  Events.push_back(E);
}

} // namespace

void trace::enable(bool Enable) { On.store(Enable); }
bool trace::enabled() { return On.load(std::memory_order_relaxed); }

trace::Span::Span(const char *Name, uint64_t ParentId) : Name(Name) {
  if (!enabled())
    return;
  Id = NextId.fetch_add(1);
  Parent = ParentId != Inherit ? ParentId : (Open.empty() ? 0 : Open.back());
  Open.push_back(Id);
  StartUs = nowUs();
}

trace::Span::~Span() {
  if (!Id)
    return;
  double End = nowUs();
  Open.pop_back();
  push(Event{Name, Id, Parent, StartUs, End, threadId()});
}

uint64_t trace::record(const char *Name, double StartUs, double EndUs,
                       uint64_t Parent) {
  if (!enabled())
    return 0;
  uint64_t Id = NextId.fetch_add(1);
  push(Event{Name, Id, Parent, StartUs, EndUs, threadId()});
  return Id;
}

uint64_t trace::spanCount() {
  std::lock_guard<std::mutex> L(M);
  return Events.size();
}

std::map<std::string, trace::Layer> trace::summarize() {
  std::lock_guard<std::mutex> L(M);
  std::unordered_map<uint64_t, double> ChildUs;
  for (const Event &E : Events)
    if (E.Parent)
      ChildUs[E.Parent] += E.EndUs - E.StartUs;
  std::map<std::string, Layer> Out;
  for (const Event &E : Events) {
    double Dur = E.EndUs - E.StartUs;
    auto It = ChildUs.find(E.Id);
    double Children = It == ChildUs.end() ? 0.0 : It->second;
    Layer &Lay = Out[E.Name];
    ++Lay.Count;
    Lay.TotalUs += Dur;
    // Children handed to other threads may overlap each other; never let
    // them push the parent's self time below zero.
    Lay.SelfUs += std::max(0.0, Dur - Children);
  }
  return Out;
}

bool trace::writeChrome(const std::string &Path) {
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return false;
  std::lock_guard<std::mutex> L(M);
  std::fprintf(F, "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n");
  for (size_t I = 0; I != Events.size(); ++I) {
    const Event &E = Events[I];
    std::fprintf(F,
                 "{\"name\": \"%s\", \"cat\": \"perfbench\", \"ph\": \"X\", "
                 "\"ts\": %.3f, \"dur\": %.3f, \"pid\": 1, \"tid\": %u, "
                 "\"args\": {\"id\": %llu, \"parent\": %llu}}",
                 E.Name, E.StartUs, E.EndUs - E.StartUs, E.Tid,
                 static_cast<unsigned long long>(E.Id),
                 static_cast<unsigned long long>(E.Parent));
    std::fprintf(F, I + 1 == Events.size() ? "\n" : ",\n");
  }
  std::fprintf(F, "]}\n");
  return std::fclose(F) == 0;
}
