//===- perfbench/src/Daemon.cpp - The fcsl-serve workload -----------------===//
//
// Part of fcsl-cpp's verdict benchmark. The shipped fcsl-serve binary, its
// store populated during set-up, driven in a closed loop over three
// connections: two clients send warm submits (served from the store), one
// sends engine-backed submits with cache=off, a seeded shuffle of every
// session at a time. Store reads thus run beside engine compute in one
// daemon, which is what the service, cache and codec layers are measured
// under.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"
#include "Trace.h"

#include "cache/Store.h"
#include "service/Client.h"
#include "structures/Suite.h"

#include <csignal>
#include <cstdio>
#include <cstring>
#include <random>
#include <thread>

#include <fcntl.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

extern char **environ;

using namespace fcsl;
using namespace perfbench;

namespace {

constexpr uint8_t CacheOffByte = static_cast<uint8_t>(cache::CacheMode::Off);

struct Daemon {
  pid_t Pid = -1;
  std::string Socket;
  std::string StoreDir;
};

/// Starts fcsl-serve with plain engine flags and a read-write store in
/// \p StoreDir; its output goes to a log beside the store.
bool spawnDaemon(const Options &O, const std::string &Dir, Daemon &D) {
  D.StoreDir = Dir + "/store";
  D.Socket = Dir + "/serve.sock";
  ::mkdir(Dir.c_str(), 0755);
  ::mkdir(D.StoreDir.c_str(), 0755);
  std::vector<std::string> Args = {O.ServeBin, "--socket",   D.Socket,
                                   "--workers", "1",         "--jobs",
                                   "1",         "--por",     "off",
                                   "--symmetry", "off",      "--cache",
                                   "rw"};
  std::vector<std::string> Env;
  for (char **E = environ; *E; ++E)
    if (std::strncmp(*E, "FCSL_", 5) != 0)
      Env.push_back(*E);
  Env.push_back("FCSL_CACHE_DIR=" + D.StoreDir);
  std::vector<char *> Argv, Envp;
  for (std::string &A : Args)
    Argv.push_back(A.data());
  Argv.push_back(nullptr);
  for (std::string &E : Env)
    Envp.push_back(E.data());
  Envp.push_back(nullptr);

  posix_spawn_file_actions_t Fa;
  posix_spawn_file_actions_init(&Fa);
  std::string Log = Dir + "/serve.log";
  posix_spawn_file_actions_addopen(&Fa, 1, Log.c_str(),
                                   O_WRONLY | O_CREAT | O_TRUNC, 0644);
  posix_spawn_file_actions_adddup2(&Fa, 1, 2);
  int Rc = posix_spawn(&D.Pid, O.ServeBin.c_str(), &Fa, nullptr, Argv.data(),
                       Envp.data());
  posix_spawn_file_actions_destroy(&Fa);
  if (Rc != 0) {
    D.Pid = -1;
    return false;
  }
  // Ready when a client completes the Hello handshake.
  for (int Try = 0; Try != 5000; ++Try) {
    if (service::ServiceClient(D.Socket, 1000).ok())
      return true;
    int Status = 0;
    if (::waitpid(D.Pid, &Status, WNOHANG) == D.Pid) {
      D.Pid = -1;
      return false;
    }
    ::usleep(2000);
  }
  return false;
}

/// Asks the daemon to drain and exit, and reaps it; \p PeakRssMb gets its
/// peak resident set. Kills it if it does not exit within ten seconds.
bool stopDaemon(Daemon &D, double *PeakRssMb = nullptr) {
  if (D.Pid < 0)
    return false;
  bool Clean = false;
  {
    service::ServiceClient C(D.Socket, 2000);
    Clean = C.ok() && C.shutdown();
  }
  struct rusage Ru;
  int Status = 0;
  pid_t Got = 0;
  for (int Try = 0; Try != 1000 && Got == 0; ++Try) {
    Got = ::wait4(D.Pid, &Status, WNOHANG, &Ru);
    if (Got == 0)
      ::usleep(10000);
  }
  if (Got == 0) {
    ::kill(D.Pid, SIGKILL);
    Got = ::wait4(D.Pid, &Status, 0, &Ru);
    Clean = false;
  }
  D.Pid = -1;
  if (PeakRssMb && Got > 0)
    *PeakRssMb = static_cast<double>(Ru.ru_maxrss) / 1024.0;
  return Clean && Got > 0 && WIFEXITED(Status) && WEXITSTATUS(Status) == 0;
}

/// One client's observations during a measured phase (merged after join;
/// Results is not shared across threads).
struct ClientLog {
  std::vector<double> RttUs;    ///< per submit, client-side.
  std::vector<double> DaemonUs; ///< per submit, daemon-side handling.
  std::vector<double> DoneUs;   ///< per submit, completion time.
  std::vector<double> EngineWaitMs;
  std::vector<double> BagMs; ///< engine client: one shuffle of every session.
  uint64_t Attempted = 0;
  std::vector<std::string> Failures;
};

void warmClient(const Daemon &D, const std::vector<std::string> &Names,
                uint64_t Seed, double EndUs, ClientLog &L) {
  service::ServiceClient C(D.Socket);
  C.setRequestTimeoutMs(60000);
  std::mt19937_64 Rng(Seed);
  if (!C.ok()) {
    ++L.Attempted;
    L.Failures.push_back("warm client cannot connect: " + C.error());
    return;
  }
  while (nowUs() < EndUs) {
    const std::string &Name = Names[Rng() % Names.size()];
    double Start = nowUs();
    std::optional<dist::ReportMsg> Rep;
    {
      trace::Span Sp("service.submit");
      Rep = C.submit(Name);
    }
    double Rtt = nowUs() - Start;
    ++L.Attempted;
    if (!Rep || !Rep->Ok || !Rep->ServedFromCache || !Rep->Report.AllPassed ||
        Rep->Report.Program != Name) {
      L.Failures.push_back("warm submit of " + Name + " " +
                           (!Rep      ? "lost: " + C.error()
                            : !Rep->Ok ? "refused: " + Rep->Error
                                       : std::string("not a warm pass")));
      if (!Rep)
        return;
      continue;
    }
    L.RttUs.push_back(Rtt);
    L.DaemonUs.push_back(static_cast<double>(Rep->ElapsedUs));
    L.DoneUs.push_back(Start + Rtt);
  }
}

void engineClient(const Daemon &D, const std::vector<std::string> &Names,
                  uint64_t Seed, double EndUs, ClientLog &L) {
  service::ServiceClient C(D.Socket);
  C.setRequestTimeoutMs(60000);
  std::mt19937_64 Rng(Seed);
  if (!C.ok()) {
    ++L.Attempted;
    L.Failures.push_back("engine client cannot connect: " + C.error());
    return;
  }
  std::vector<std::string> Bag = Names;
  while (nowUs() < EndUs) {
    for (size_t I = Bag.size(); I > 1; --I)
      std::swap(Bag[I - 1], Bag[Rng() % I]);
    double BagStart = nowUs();
    bool Whole = true;
    for (const std::string &Name : Bag) {
      if (nowUs() >= EndUs) {
        Whole = false;
        break;
      }
      double Start = nowUs();
      double FirstAt = -1.0, FirstOwnUs = 0.0;
      std::optional<dist::ReportMsg> Rep;
      {
        trace::Span Sp("service.submit");
        uint64_t SubmitId = Sp.id();
        Rep = C.submit(Name, 0, 0, CacheOffByte, 0,
                       [&](const dist::ProgressMsg &P) {
                         double Now = nowUs();
                         if (FirstAt < 0) {
                           FirstAt = Now;
                           FirstOwnUs = static_cast<double>(P.ElapsedUs);
                         }
                         trace::record("service.progress",
                                       Now - static_cast<double>(P.ElapsedUs),
                                       Now, SubmitId);
                       });
      }
      double Rtt = nowUs() - Start;
      ++L.Attempted;
      if (!Rep || !Rep->Ok || Rep->ServedFromCache ||
          !Rep->Report.AllPassed || Rep->Report.Program != Name ||
          FirstAt < 0) {
        L.Failures.push_back("engine submit of " + Name + " " +
                             (!Rep      ? "lost: " + C.error()
                              : !Rep->Ok ? "refused: " + Rep->Error
                                         : std::string("not an engine pass")));
        if (!Rep)
          return;
        Whole = false;
        continue;
      }
      L.RttUs.push_back(Rtt);
      L.DaemonUs.push_back(static_cast<double>(Rep->ElapsedUs));
      L.EngineWaitMs.push_back((FirstAt - Start - FirstOwnUs) / 1000.0);
    }
    if (Whole)
      L.BagMs.push_back((nowUs() - BagStart) / 1000.0);
  }
}

struct Phase {
  ClientLog Warm, Engine;
  double StartUs = 0.0;
  dist::CacheStatsMsg Before, After;

  /// Warm submits completed per second: the median over the phase's whole
  /// one-second windows, so a burst of engine work in one window does not
  /// move it.
  double warmRate() const {
    std::vector<double> PerWindow;
    for (double Done : Warm.DoneUs) {
      size_t W = static_cast<size_t>((Done - StartUs) / 1e6);
      if (W >= PerWindow.size())
        PerWindow.resize(W + 1, 0.0);
      PerWindow[W] += 1.0;
    }
    if (PerWindow.size() > 1)
      PerWindow.pop_back(); // the last window is partial.
    return median(PerWindow);
  }
};

Phase measure(const Daemon &D, const std::vector<std::string> &Names,
              uint64_t Seed, double Seconds, Results &R) {
  Phase P;
  {
    service::ServiceClient C(D.Socket);
    if (auto S = C.stats())
      P.Before = *S;
  }
  ClientLog WarmLogs[2];
  P.StartUs = nowUs();
  double End = P.StartUs + Seconds * 1e6;
  std::thread W0(warmClient, std::cref(D), std::cref(Names), Seed * 3 + 1,
                 End, std::ref(WarmLogs[0]));
  std::thread W1(warmClient, std::cref(D), std::cref(Names), Seed * 3 + 2,
                 End, std::ref(WarmLogs[1]));
  std::thread E(engineClient, std::cref(D), std::cref(Names), Seed * 3 + 3,
                End, std::ref(P.Engine));
  W0.join();
  W1.join();
  E.join();
  {
    service::ServiceClient C(D.Socket);
    std::optional<dist::CacheStatsMsg> S = C.stats();
    R.verdict(S.has_value(), "daemon stats query failed");
    if (S)
      P.After = *S;
  }
  for (ClientLog *L : {&WarmLogs[0], &WarmLogs[1]}) {
    P.Warm.RttUs.insert(P.Warm.RttUs.end(), L->RttUs.begin(), L->RttUs.end());
    P.Warm.DaemonUs.insert(P.Warm.DaemonUs.end(), L->DaemonUs.begin(),
                           L->DaemonUs.end());
    P.Warm.DoneUs.insert(P.Warm.DoneUs.end(), L->DoneUs.begin(),
                         L->DoneUs.end());
    P.Warm.Attempted += L->Attempted;
    P.Warm.Failures.insert(P.Warm.Failures.end(), L->Failures.begin(),
                           L->Failures.end());
  }
  for (ClientLog *L : {&P.Warm, &P.Engine}) {
    R.passed(L->Attempted - L->Failures.size());
    for (const std::string &F : L->Failures)
      R.verdict(false, F);
  }
  R.verdict(!P.Warm.RttUs.empty() && !P.Engine.BagMs.empty(),
            "daemon phase completed no warm submit or no engine shuffle");
  return P;
}

/// Populates a fresh daemon's store with every session (engine runs,
/// cache rw), then confirms each session is now answered warm.
bool populate(const Daemon &D, const std::vector<std::string> &Names,
              Results &R) {
  service::ServiceClient C(D.Socket);
  C.setRequestTimeoutMs(60000);
  if (!C.ok())
    return false;
  bool Ok = true;
  for (bool Warm : {false, true})
    for (const std::string &Name : Names) {
      std::optional<dist::ReportMsg> Rep = C.submit(Name);
      bool Good = Rep && Rep->Ok && Rep->Report.AllPassed &&
                  Rep->ServedFromCache == Warm;
      R.verdict(Good, "set-up submit of " + Name +
                          (Warm ? " not served warm" : " failed"));
      Ok &= Good;
      if (Good && Warm) {
        std::string Key = "session." + slug(Name);
        R.exact(Key + ".obligations", Rep->Report.totalObligations());
        R.exact(Key + ".checks.plain", Rep->Report.totalChecks());
      }
    }
  if (std::optional<dist::CacheStatsMsg> S = C.stats())
    R.exact("daemon.store_records", S->StoreRecords);
  return Ok;
}

} // namespace

void perfbench::runDaemon(const Options &O, Results &R) {
  std::vector<std::string> Names;
  for (const CaseEntry &E : allVerifiableSessions())
    Names.push_back(E.Name);

  // Set-up: start a daemon on a fresh store and populate it. Repeated for
  // a median; every daemon but the last is drained and reaped.
  std::vector<double> SetupS;
  Daemon D;
  const int Setups = 3;
  for (int Rep = 0; Rep != Setups; ++Rep) {
    double Start = nowUs();
    Daemon Cur;
    bool Up = spawnDaemon(O, O.OutDir + "/daemon" + std::to_string(Rep), Cur);
    R.verdict(Up, "fcsl-serve did not come up");
    if (!Up || !populate(Cur, Names, R)) {
      stopDaemon(Cur);
      return;
    }
    SetupS.push_back((nowUs() - Start) / 1e6);
    if (Rep + 1 == Setups)
      D = Cur;
    else
      R.verdict(stopDaemon(Cur), "fcsl-serve did not shut down cleanly");
  }

  // Measured phases: untraced, then (for a traced run) traced.
  double PhaseSeconds = O.Traced ? O.Seconds / 2 : O.Seconds;
  Phase Plain = measure(D, Names, O.Seed, PhaseSeconds, R);
  Phase Traced;
  if (O.Traced) {
    trace::enable(true);
    Traced = measure(D, Names, O.Seed + 1000003, PhaseSeconds, R);
    trace::enable(false);
  }
  double DaemonRss = 0.0;
  R.verdict(stopDaemon(D, &DaemonRss), "fcsl-serve did not shut down cleanly");

  double WarmP50 = median(Plain.Warm.RttUs);
  R.metric("setup_s", median(SetupS), "s");
  R.metric("peak_rss_mb", DaemonRss, "MB");
  R.metric("main_p50_ms", WarmP50 / 1000.0, "ms");
  R.metric("alt_p50_ms", median(Plain.Engine.BagMs), "ms");
  R.metric("service.warm_requests_per_s", Plain.warmRate(), "1/s");
  std::printf("daemon: %zu warm submits (p50 %.1f us, tail %.1f us), %zu "
              "engine submits (p50 %.3f ms), %zu whole shuffles (p50 %.3f "
              "ms); %.0f warm submits/s\n",
              Plain.Warm.RttUs.size(), WarmP50, tailValue(Plain.Warm.RttUs),
              Plain.Engine.RttUs.size(), median(Plain.Engine.RttUs) / 1000.0,
              Plain.Engine.BagMs.size(), median(Plain.Engine.BagMs),
              Plain.warmRate());
  if (!O.Traced)
    return;

  // Service layer, from the untraced phase's client-side clocks.
  std::vector<double> Transport;
  for (size_t I = 0; I != Plain.Warm.RttUs.size(); ++I)
    Transport.push_back(Plain.Warm.RttUs[I] - Plain.Warm.DaemonUs[I]);
  R.metric("service.transport_us", median(Transport), "us");
  R.metric("service.warm_rtt_tail_us", tailValue(Plain.Warm.RttUs), "us");
  R.metric("service.engine_rtt_p50_ms", median(Plain.Engine.RttUs) / 1000.0,
           "ms");
  R.metric("service.engine_wait_ms", median(Plain.Engine.EngineWaitMs), "ms");
  R.metric("service.rejected",
           double(Plain.After.Rejected - Plain.Before.Rejected), "count");
  R.metric("service.sessions_run",
           double(Plain.After.SessionsRun - Plain.Before.SessionsRun),
           "count");
  R.metric("service.served_from_cache",
           double(Plain.After.ServedFromCache - Plain.Before.ServedFromCache),
           "count");
  R.metric("cache.hits",
           double(Plain.After.ObligationsReplayed -
                  Plain.Before.ObligationsReplayed),
           "count");
  R.metric("cache.store_bytes", double(Plain.After.StoreBytes), "B");
  R.metric("trace.overhead_ms",
           (median(Traced.Warm.RttUs) - WarmP50) / 1000.0, "ms");

  // Cache and codec layers, probed in-process on the daemon's store (the
  // daemon has exited; its log is complete on disk).
  cache::setCacheDir(D.StoreDir);
  cache::setDefaultCacheMode(cache::CacheMode::Ro);
  cache::resetActiveStore();
  cache::Store *St = cache::activeStore();
  cache::setDefaultCacheMode(cache::CacheMode::Off);
  R.verdict(St != nullptr, "cannot open the daemon's store");
  if (!St)
    return;
  std::vector<VerificationSession> Sessions;
  for (const CaseEntry &E : allVerifiableSessions())
    Sessions.push_back(E.MakeSession());
  const uint64_t FlagsFp =
      engineFlagsFingerprintFor(PorMode::Off, SymMode::Off);
  // Untraced repetitions give the timings; a few traced ones after them
  // give the spans.
  std::vector<double> LookupUs, ServeUs, EncodeUs, DecodeUs, Bytes;
  uint64_t Misses = 0, Units = 0;
  for (const VerificationSession &S : Sessions)
    Units += S.numObligations();
  const uint64_t Hits0 = cache::cacheStats().Hits;
  const int Reps = 120, TimedReps = 100;
  for (int Rep = 0; Rep != Reps; ++Rep) {
    bool Timed = Rep < TimedReps;
    trace::enable(!Timed);
    double Start = nowUs();
    {
      trace::Span Sp("cache.lookup");
      for (const VerificationSession &S : Sessions)
        for (const ProofUnit &U : S.units())
          Misses += St->lookup(U.key(FlagsFp)) == nullptr;
    }
    double Lookup = nowUs() - Start;
    for (const VerificationSession &S : Sessions) {
      double T0 = nowUs();
      std::optional<SessionReport> Served;
      {
        trace::Span Sp("cache.serve");
        Served = S.serveFromStore(*St, FlagsFp);
      }
      double T1 = nowUs();
      if (!Served || !Served->AllPassed) {
        R.verdict(false, "in-process serve of " + S.program() + " failed");
        continue;
      }
      Encoder E;
      {
        trace::Span Sp("codec.encode");
        encode(E, *Served);
      }
      double T2 = nowUs();
      Decoder Dec(E.buffer());
      SessionReport Back;
      {
        trace::Span Sp("codec.decode");
        Back = decodeSessionReport(Dec);
      }
      double T3 = nowUs();
      if (Dec.failed() || Back.Program != Served->Program ||
          Back.totalChecks() != Served->totalChecks())
        R.verdict(false, "codec round trip of " + S.program() + " differs");
      if (Timed) {
        ServeUs.push_back(T1 - T0);
        EncodeUs.push_back(T2 - T1);
        DecodeUs.push_back(T3 - T2);
        Bytes.push_back(static_cast<double>(E.buffer().size()));
      }
    }
    if (Timed)
      LookupUs.push_back(Lookup);
  }
  trace::enable(false);
  R.verdict(Misses == 0, "warm store misses " + std::to_string(Misses) +
                             " unit keys");
  R.verdict(cache::cacheStats().Hits - Hits0 == Reps * Units,
            "in-process serves did not replay every unit from the store");
  R.metric("cache.lookup_us", median(LookupUs), "us");
  R.metric("cache.misses", double(Misses), "count");
  R.metric("cache.serve_us", median(ServeUs), "us");
  R.metric("support.codec.encode_us", median(EncodeUs), "us");
  R.metric("support.codec.decode_us", median(DecodeUs), "us");
  R.metric("support.codec.report_bytes", median(Bytes), "B");
}
