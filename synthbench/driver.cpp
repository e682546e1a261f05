//===- synthbench/driver.cpp - The synthesis benchmark driver ---------------===//
//
// Part of the Migrator project: a reproduction of "Synthesizing Database
// Programs for Schema Refactoring" (Wang et al., PLDI 2019).
//
//===----------------------------------------------------------------------===//
//
// One process, one workload run. Scenarios are drawn from the seed through
// generateBenchmark and synthesized with synthesize(); see README.md in this
// directory for the workloads, the metrics and the traced run. run.py builds
// this driver, adds provenance and prints the final result line.
//
//   synthbench_driver --workload W --seed N --seconds S --trace 0|1
//                     [--out-dir DIR]
//   synthbench_driver --workload W --seed N --setup-only [--cpu K]
//   synthbench_driver --workload W --seed N --pass [--check] [--cpu K]
//   synthbench_driver --self-test | --version
//
// --setup-only and --pass are the child processes of a timed run.
//
// The last line on stdout is one JSON object; exit code 0 when every check
// passed, 1 when a check failed, 2 on a usage error.
//
//===----------------------------------------------------------------------===//

#include "Spans.h"
#include "Stats.h"

#include "ast/Analysis.h"
#include "benchsuite/Generator.h"
#include "obs/Metrics.h"
#include "sat/Solver.h"
#include "sketch/SketchGen.h"
#include "support/Rng.h"
#include "support/Timer.h"
#include "synth/Encoder.h"
#include "synth/RandomWorkload.h"
#include "synth/SketchSolver.h"
#include "synth/Synthesizer.h"
#include "synth/Tester.h"
#include "vc/VcEnumerator.h"

#include <malloc.h>
#include <sched.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

extern char **environ;

using namespace migrator;
using namespace synthbench;

namespace {

//===----------------------------------------------------------------------===//
// Workloads and scenarios
//===----------------------------------------------------------------------===//

enum class Family { Split, Move };

struct Workload {
  const char *Name;
  Family Fam;
  unsigned Jobs; ///< Requested worker threads (capped at the CPUs we may use).
};

const Workload Workloads[] = {
    {"split-verify", Family::Split, 1},
    {"move-search", Family::Move, 1},
    {"split-verify-j4", Family::Split, 4},
    {"move-search-j4", Family::Move, 4},
};

/// The size of one family's scenarios: one scenario per entry of Tables,
/// so every seed yields the same mix of sizes. Scaled down from the paper's
/// real-world benchmarks (~10 functions per table) so that one run
/// synthesizes every scenario several times.
struct Shape {
  std::vector<unsigned> Tables;
  unsigned FuncsPerTable;
  unsigned AttrsPerTable;
};

const Shape SplitShape = {{4, 5, 6, 7, 8}, 2, 5};
const Shape MoveShape = {{8, 9, 10}, 4, 6};

/// Fresh --setup-only processes per run, spread evenly over the timed
/// passes so that their median sees the same host as the timed calls;
/// setup_s is that median.
constexpr unsigned SetupProbes = 101;

/// Wall-clock budget per synthesize() call; a scenario that exceeds it
/// counts as failed.
constexpr double ScenarioBudgetSec = 60;

struct Scenario {
  int Id = 0;
  GenSpec Spec;
  Benchmark B;
};

/// The values 0..N-1 cycled over \p Count slots, in seeded random order.
std::vector<unsigned> shuffledCycle(Rng &R, size_t Count, unsigned N) {
  std::vector<unsigned> V(Count);
  for (size_t I = 0; I < Count; ++I)
    V[I] = static_cast<unsigned>(I % N);
  for (size_t I = Count; I > 1; --I)
    std::swap(V[I - 1], V[R.next(I)]);
  return V;
}

/// Draws a run's scenarios from \p Seed. Every seed yields the same
/// multiset of refactoring details; the seed decides which scenario gets
/// which. Runs on different seeds therefore measure comparable amounts of
/// work while the scenarios themselves differ from seed to seed.
std::vector<GenSpec> drawSpecs(Family F, uint64_t Seed) {
  Rng R(Seed ^ 0x5f3759df9e3779b9ULL);
  const bool Split = F == Family::Split;
  const Shape &Sh = Split ? SplitShape : MoveShape;
  const size_t N = Sh.Tables.size();
  // 0-3 renamed (split) or added (move) attributes. The attribute layout
  // stays fixed: on split scenarios it decides how many candidates the
  // jobs=4 portfolio verifies (4 or 10 on the same table count), which
  // would make runs on different seeds measure different amounts of work.
  std::vector<unsigned> Detail = shuffledCycle(R, N, 4);
  std::vector<GenSpec> Specs;
  for (size_t I = 0; I < N; ++I) {
    const unsigned T = Sh.Tables[I];
    GenSpec S;
    S.NumTables = T;
    S.NumAttrs = Sh.AttrsPerTable * T;
    S.NumFuncs = Sh.FuncsPerTable * T;
    if (Split) {
      // coachup/cdx-like: one shared split plus renamed attributes.
      S.Name = "split" + std::to_string(T);
      S.Description = "Split tables, rename attrs";
      S.SharedSplits = 1;
      S.RenamedAttrs = Detail[I];
    } else {
      // royk/MathHotSpot-like: two satellite pairs with a moved attribute
      // each, plus added attributes.
      S.Name = "move" + std::to_string(T);
      S.Description = "Move attrs, add attrs";
      S.SatellitePairs = 2;
      S.MovedAttrs = 2;
      S.AddedAttrs = Detail[I];
    }
    Specs.push_back(S);
  }
  return Specs;
}

unsigned usableCpus() {
  cpu_set_t Set;
  if (sched_getaffinity(0, sizeof(Set), &Set) == 0)
    return std::max(1, CPU_COUNT(&Set));
  long N = sysconf(_SC_NPROCESSORS_ONLN);
  return N > 0 ? static_cast<unsigned>(N) : 1;
}

/// The ids of the CPUs this process may run on; empty when unknown.
std::vector<int> usableCpuIds() {
  std::vector<int> Ids;
  cpu_set_t Set;
  if (sched_getaffinity(0, sizeof(Set), &Set) == 0)
    for (int C = 0; C < CPU_SETSIZE; ++C)
      if (CPU_ISSET(C, &Set))
        Ids.push_back(C);
  return Ids;
}

/// Restricts this process to CPU \p Cpu.
bool pinToCpu(int Cpu) {
  cpu_set_t Set;
  CPU_ZERO(&Set);
  CPU_SET(Cpu, &Set);
  return sched_setaffinity(0, sizeof(Set), &Set) == 0;
}

SynthOptions optionsFor(unsigned Jobs) {
  SynthOptions O;
  O.Jobs = Jobs;
  O.Deterministic = Jobs > 1;
  O.TimeBudgetSec = ScenarioBudgetSec;
  return O;
}

/// prog_hash: FNV-1a over the printed program.
std::string progHash(const Program &P) {
  uint64_t H = 0xcbf29ce484222325ULL;
  for (unsigned char C : P.str()) {
    H ^= C;
    H *= 0x100000001b3ULL;
  }
  char Buf[17];
  std::snprintf(Buf, sizeof(Buf), "%016" PRIx64, H);
  return Buf;
}

uint64_t mixSeed(uint64_t Seed, uint64_t A, uint64_t B = 0) {
  Rng R(Seed * 0x9e3779b97f4a7c15ULL + A * 0xbf58476d1ce4e5b9ULL + B);
  return R.next();
}

double monotonicS() {
  timespec T;
  clock_gettime(CLOCK_MONOTONIC, &T);
  return static_cast<double>(T.tv_sec) + static_cast<double>(T.tv_nsec) * 1e-9;
}

double processCpuS() {
  timespec T;
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &T);
  return static_cast<double>(T.tv_sec) + static_cast<double>(T.tv_nsec) * 1e-9;
}

/// Peak resident memory of this process since it started, in MB (the
/// kernel's VmHWM; set-up probes are children and do not count).
double peakRssMb() {
  rusage U;
  getrusage(RUSAGE_SELF, &U);
  return static_cast<double>(U.ru_maxrss) / 1024.0; // ru_maxrss is in KiB.
}

uint64_t counter(const obs::MetricsSnapshot &M, const char *Name) {
  auto It = M.Counters.find(Name);
  return It == M.Counters.end() ? 0 : It->second;
}

double ratio(double Num, double Den) { return Den > 0 ? Num / Den : 0; }

//===----------------------------------------------------------------------===//
// JSON output
//===----------------------------------------------------------------------===//

std::string jsonStr(const std::string &S) {
  std::string Out = "\"";
  for (char C : S) {
    if (C == '"' || C == '\\') {
      Out += '\\';
      Out += C;
    } else if (static_cast<unsigned char>(C) < 0x20) {
      char Buf[8];
      std::snprintf(Buf, sizeof(Buf), "\\u%04x", C);
      Out += Buf;
    } else {
      Out += C;
    }
  }
  return Out + "\"";
}

std::string jsonNum(double V) {
  if (!std::isfinite(V))
    return "null";
  char Buf[40];
  std::snprintf(Buf, sizeof(Buf), "%.15g", V);
  return Buf;
}

/// Named metrics in declaration order, printed as
/// {"name": {"value": v, "unit": u}, ...}.
struct MetricList {
  std::vector<std::pair<std::string, std::pair<double, std::string>>> Items;

  void add(const std::string &Name, double V, const std::string &Unit) {
    Items.push_back({Name, {V, Unit}});
  }

  std::string json() const {
    std::string Out = "{";
    for (size_t I = 0; I < Items.size(); ++I)
      Out += (I ? ", " : "") + jsonStr(Items[I].first) + ": {\"value\": " +
             jsonNum(Items[I].second.first) +
             ", \"unit\": " + jsonStr(Items[I].second.second) + "}";
    return Out + "}";
  }
};

//===----------------------------------------------------------------------===//
// Child processes
//===----------------------------------------------------------------------===//

/// Runs a fresh copy of this program with \p Args and returns its stdout,
/// or nullopt when it could not be started or did not exit with code 0.
/// \p SpawnedAt receives the monotonic time just before the spawn.
std::optional<std::string> runChild(std::vector<std::string> Args,
                                    double *SpawnedAt = nullptr) {
  int Fd[2];
  if (pipe(Fd) != 0)
    return std::nullopt;
  posix_spawn_file_actions_t FA;
  posix_spawn_file_actions_init(&FA);
  posix_spawn_file_actions_adddup2(&FA, Fd[1], STDOUT_FILENO);
  posix_spawn_file_actions_addclose(&FA, Fd[0]);
  posix_spawn_file_actions_addclose(&FA, Fd[1]);
  Args.insert(Args.begin(), "synthbench_driver");
  std::vector<char *> Argv;
  for (std::string &A : Args)
    Argv.push_back(A.data());
  Argv.push_back(nullptr);

  pid_t Pid = 0;
  if (SpawnedAt)
    *SpawnedAt = monotonicS();
  int Err = posix_spawn(&Pid, "/proc/self/exe", &FA, nullptr, Argv.data(),
                        environ);
  posix_spawn_file_actions_destroy(&FA);
  close(Fd[1]);
  if (Err != 0) {
    close(Fd[0]);
    return std::nullopt;
  }
  std::string Out;
  char Buf[4096];
  ssize_t N;
  while ((N = read(Fd[0], Buf, sizeof(Buf))) > 0)
    Out.append(Buf, static_cast<size_t>(N));
  close(Fd[0]);
  int Status = 0;
  waitpid(Pid, &Status, 0);
  if (!WIFEXITED(Status) || WEXITSTATUS(Status) != 0)
    return std::nullopt;
  return Out;
}

/// Spawns a fresh --setup-only process and returns the seconds from just
/// before the spawn to the child's report that it reached its first
/// synthesize() call (process start plus scenario generation). Returns a
/// negative value when the probe fails.
double probeSetupS(const std::string &Workload, uint64_t Seed, int Cpu) {
  double Start = 0;
  std::optional<std::string> Out =
      runChild({"--setup-only", "--workload", Workload, "--seed",
                std::to_string(Seed), "--cpu", std::to_string(Cpu)},
               &Start);
  if (!Out)
    return -1;
  double Ready = std::strtod(Out->c_str(), nullptr);
  return Ready > Start ? Ready - Start : -1;
}

//===----------------------------------------------------------------------===//
// Traced run: Algorithm 1 re-driven layer by layer
//===----------------------------------------------------------------------===//

/// Models drawn per sketch for the sat.draw_us sample.
constexpr unsigned DrawsPerSketch = 16;

/// Random invocation sequences per program for the eval.* rates.
constexpr unsigned EvalSequences = 1500;

/// What the traced re-drive of one scenario produced.
struct Redrive {
  std::optional<Program> Prog;
  size_t NumVcs = 0;
  size_t Unsupported = 0;
  uint64_t Holes = 0;
  SolveStats Agg;
  std::vector<double> DrawUs;
  int FirstSpan = 0; ///< First span index of the pipeline phase.
  int LastSpan = 0;  ///< One past the last.
};

/// Replays synthesize() at jobs=1 (Synthesizer.cpp) through the layers'
/// public entry points, one span around each call: vc.init/vc.next,
/// sketch.generate, sat.encode + sat.draw (a probe encoder drawing the
/// sketch's first models; extra work synthesize() does not do) and
/// synth.solve, per VC until the first success. The probe encodes the way
/// SketchSolver::solve does: with the incremental engine, into one solver
/// kept across the scenario's sketches behind an activation literal;
/// without it, into a scratch solver per sketch.
Redrive redrive(const Scenario &S, const SynthOptions &Opts,
                SpanRecorder &Spans) {
  Redrive Out;
  Out.FirstSpan = static_cast<int>(Spans.spans().size());
  Timer Total;
  std::set<QualifiedAttr> Queried = collectQueriedAttrs(S.B.Prog, S.B.Source);
  std::optional<VcEnumerator> VcEnum;
  {
    SpanScope Sp(Spans, "vc.init", S.Id);
    VcEnum.emplace(S.B.Source, S.B.Target, Queried, Opts.Vc);
  }
  const bool ReuseSlot = sat::satIncrementalEnabled();
  std::unique_ptr<SketchSolver> Slot;
  std::unique_ptr<sat::Solver> ProbeSolver;
  if (ReuseSlot)
    ProbeSolver = std::make_unique<sat::Solver>();
  while (Out.NumVcs < Opts.MaxVcs) {
    double Remaining = Opts.TimeBudgetSec - Total.elapsedSeconds();
    if (Remaining <= 0) {
      Out.Agg.TimedOut = true;
      break;
    }
    std::optional<ValueCorrespondence> Phi;
    {
      SpanScope Sp(Spans, "vc.next", S.Id);
      Phi = VcEnum->next();
    }
    if (!Phi)
      break;
    ++Out.NumVcs;
    std::optional<Sketch> Sk;
    {
      SpanScope Sp(Spans, "sketch.generate", S.Id);
      Sk = generateSketch(S.B.Prog, S.B.Source, S.B.Target, *Phi,
                          Opts.SketchGen);
    }
    if (!Sk) {
      ++Out.Unsupported;
      continue;
    }
    Out.Holes += Sk->getNumHoles();

    std::optional<SketchEncoder> Enc;
    {
      SpanScope Sp(Spans, "sat.encode", S.Id);
      if (ProbeSolver)
        Enc.emplace(*Sk, Opts.Solver.BiasFirstAlternatives, *ProbeSolver);
      else
        Enc.emplace(*Sk, Opts.Solver.BiasFirstAlternatives);
    }
    {
      SpanScope Sp(Spans, "sat.draw", S.Id);
      for (unsigned I = 0; I < DrawsPerSketch; ++I) {
        Timer T;
        std::optional<std::vector<unsigned>> A = Enc->nextAssignment();
        if (!A)
          break;
        Enc->blockAll(*A);
        Out.DrawUs.push_back(T.elapsedSeconds() * 1e6);
      }
    }
    Enc.reset();

    SolverOptions SolverOpts = Opts.Solver;
    SolverOpts.TimeBudgetSec = std::min(Opts.Solver.TimeBudgetSec, Remaining);
    SolveStats SS;
    {
      SpanScope Sp(Spans, "synth.solve", S.Id);
      if (!Slot || !ReuseSlot)
        Slot = std::make_unique<SketchSolver>(S.B.Source, S.B.Prog,
                                              S.B.Target, SolverOpts);
      else
        Slot->setTimeBudgetSec(SolverOpts.TimeBudgetSec);
      Out.Prog = Slot->solve(*Sk, SS);
    }
    Out.Agg += SS;
    if (Out.Prog)
      break;
    if (SS.TimedOut && Total.elapsedSeconds() >= Opts.TimeBudgetSec)
      break;
  }
  Out.LastSpan = static_cast<int>(Spans.spans().size());
  return Out;
}

/// Per-layer totals over the scenarios of a traced run.
struct LayerTotals {
  double GenerateS = 0;
  uint64_t Vcs = 0, Sketches = 0, Unsupported = 0, Holes = 0;
  std::vector<double> DrawUs;
  uint64_t SatCalls = 0, SatConflicts = 0;
  uint64_t Iters = 0, MfiHits = 0, MfiMisses = 0;
  uint64_t CorpusKills = 0, CorpusReplays = 0;
  double InSolveVerifyS = 0;
  // Stand-alone tester / verifier / evaluator runs on the final programs.
  double TesterS = 0, VerifyS = 0;
  uint64_t TesterSeqs = 0, VerifySeqs = 0;
  double UpdateS = 0, QueryS = 0;
  uint64_t Updates = 0, Queries = 0;
  // Registry counts and CPU time of synthesize() at the workload's jobs.
  uint64_t SynthSeqs = 0, SynthSeqsJ1 = 0, IndexProbes = 0;
  uint64_t CowClones = 0, CowShares = 0, PoolTasks = 0, PoolSteals = 0;
  uint64_t SrcHits = 0, SrcMisses = 0;
  double SynthCpuS = 0, SynthWallS = 0;
  // Consistency of the re-drive.
  double UntracedWallS = 0; ///< synthesize() at jobs=1, metrics off.
  double PipelineWallS = 0; ///< Re-driven pipeline, first to last span.
  double PipelineSelfS = 0; ///< Sum of the pipeline spans' self times.
  double ProbeS = 0;        ///< sat.encode + sat.draw (extra work).
};

/// Times callUpdate and callQuery separately over seeded random sequences.
void timeEval(const Program &P, const Schema &Sch, uint64_t Seed,
              LayerTotals &L) {
  Evaluator Eval(Sch);
  Rng R(Seed);
  for (unsigned I = 0; I < EvalSequences; ++I) {
    InvocationSeq Seq = randomSequence(P, R);
    Database DB(Sch);
    UidGen Uids;
    for (size_t K = 0; K + 1 < Seq.size(); ++K) {
      const Function &F = P.getFunction(Seq[K].Func);
      Timer T;
      Eval.callUpdate(F, Seq[K].Args, DB, Uids);
      L.UpdateS += T.elapsedSeconds();
      ++L.Updates;
    }
    const Function &Q = P.getFunction(Seq.back().Func);
    Timer T;
    Eval.callQuery(Q, Seq.back().Args, DB);
    L.QueryS += T.elapsedSeconds();
    ++L.Queries;
  }
}

//===----------------------------------------------------------------------===//
// Driver
//===----------------------------------------------------------------------===//

struct Args {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = -1; ///< Required for a workload run.
  int Trace = 0;
  std::string OutDir;
  bool SetupOnly = false;
  bool Pass = false;  ///< Child: one pass over the scenarios.
  bool Check = false; ///< Child: the run's untimed memory-and-checks pass.
  int Cpu = -1;       ///< Child: run on this CPU only.
  bool SelfTest = false;
  bool Version = false;
};

bool parseArgs(int Argc, char **Argv, Args &A) {
  for (int I = 1; I < Argc; ++I) {
    std::string K = Argv[I];
    auto Val = [&](std::string &Out) {
      if (I + 1 >= Argc)
        return false;
      Out = Argv[++I];
      return true;
    };
    std::string V;
    if (K == "--workload") {
      if (!Val(A.Workload))
        return false;
    } else if (K == "--seed") {
      if (!Val(V))
        return false;
      A.Seed = std::strtoull(V.c_str(), nullptr, 10);
    } else if (K == "--seconds") {
      if (!Val(V))
        return false;
      A.Seconds = std::strtod(V.c_str(), nullptr);
    } else if (K == "--trace") {
      if (!Val(V) || (V != "0" && V != "1"))
        return false;
      A.Trace = V == "1";
    } else if (K == "--out-dir") {
      if (!Val(A.OutDir))
        return false;
    } else if (K == "--setup-only") {
      A.SetupOnly = true;
    } else if (K == "--pass") {
      A.Pass = true;
    } else if (K == "--check") {
      A.Check = true;
    } else if (K == "--cpu") {
      if (!Val(V))
        return false;
      A.Cpu = std::atoi(V.c_str());
    } else if (K == "--self-test") {
      A.SelfTest = true;
    } else if (K == "--version") {
      A.Version = true;
    } else {
      return false;
    }
  }
  return true;
}

/// Checks and failure bookkeeping, per scenario.
struct Checks {
  std::vector<std::string> Messages;
  std::vector<int> MessageIds; ///< Scenario of each message, or -1.
  std::vector<bool> ScenarioFailed;

  void add(int Id, const std::string &Message) {
    Messages.push_back(Message);
    MessageIds.push_back(Id);
    if (Id >= 0)
      ScenarioFailed[Id] = true;
  }
  void fail(const Scenario &S, const std::string &Why) {
    add(S.Id, S.Spec.Name + ": " + Why);
  }
  size_t numFailed() const {
    size_t N = 0;
    for (bool F : ScenarioFailed)
      N += F;
    return N;
  }
};

/// Independent check of one synthesized program: random invocation
/// sequences over a wider value domain and longer update prefixes than the
/// in-loop tester's {0, 1} seeds, seeded from the workload seed.
void checkIndependently(const Scenario &S, const Program &Synth,
                        uint64_t Seed, Checks &C) {
  RandomWorkloadOptions Wide;
  Wide.MaxUpdates = 6;
  Wide.IntDomain = 5;
  Wide.StrDomain = 5;
  std::optional<InvocationSeq> Cex =
      findRandomCounterexample(S.B.Prog, S.B.Source, Synth, S.B.Target,
                               /*Trials=*/400, mixSeed(Seed, S.Id, 1), Wide);
  if (Cex)
    C.fail(S, "independent check found a counterexample: " +
                  sequenceStr(*Cex));
}

struct Result {
  MetricList Metrics;
  std::vector<std::string> ScenarioJson;
  std::vector<std::string> InfoJson; ///< "key": value fragments.
};

/// Child side of a timed run: synthesize every scenario once, in order,
/// tracing and metrics off, and print one line per call, this process's
/// peak RSS, and one line per failed check:
///   call <id> <wall_s> <prog_hash|-> <vcs> <iters> <verify_s>
///   peak_rss_mb <mb>
///   sibling <id> <prog_hash>
///   fail <id> <message>
/// With --check (the run's first pass, whose times are not used) malloc
/// keeps one arena, and after the peak has been read come the independent
/// check and, on -j4 workloads, the jobs=1 sibling's prog_hash. One arena
/// makes the peak the program's own: with glibc's per-thread arenas a
/// jobs=4 pass peaks anywhere from 270 to 490 MB on the same scenarios,
/// depending on which worker thread happened to allocate what.
void runPass(const Args &A, const std::vector<Scenario> &Sc,
             const SynthOptions &Opts) {
  if (A.Check)
    mallopt(M_ARENA_MAX, 1);
  Checks C;
  C.ScenarioFailed.assign(Sc.size(), false);
  std::vector<std::optional<Program>> Final(Sc.size());
  for (const Scenario &S : Sc) {
    Timer T;
    SynthResult R = synthesize(S.B.Source, S.B.Prog, S.B.Target, Opts);
    const double Wall = T.elapsedSeconds();
    if (!R.succeeded())
      C.fail(S, R.Stats.TimedOut ? "timed out" : "synthesis failed");
    std::printf("call %d %.9f %s %zu %zu %.9f\n", S.Id, Wall,
                R.Prog ? progHash(*R.Prog).c_str() : "-", R.Stats.NumVcs,
                R.Stats.Iters, R.Stats.VerifyTimeSec);
    Final[S.Id] = std::move(R.Prog);
  }
  std::printf("peak_rss_mb %.6f\n", peakRssMb());

  if (A.Check)
    for (const Scenario &S : Sc) {
      if (!Final[S.Id])
        continue;
      checkIndependently(S, *Final[S.Id], A.Seed, C);
      if (Opts.Jobs > 1) {
        SynthResult R1 =
            synthesize(S.B.Source, S.B.Prog, S.B.Target, optionsFor(1));
        const std::string H1 = R1.Prog ? progHash(*R1.Prog) : "-";
        std::printf("sibling %d %s\n", S.Id, H1.c_str());
        if (H1 != progHash(*Final[S.Id]))
          C.fail(S, "prog_hash differs from the jobs=1 sibling");
      }
    }
  for (size_t I = 0; I < C.Messages.size(); ++I)
    std::printf("fail %d %s\n", C.MessageIds[I], C.Messages[I].c_str());
}

/// The timed run: passes over every scenario, each in a fresh --pass
/// process. The first pass measures peak memory and runs the checks; then
/// timed passes follow until their synthesize() time reaches --seconds.
/// Set-up probes are interleaved between the timed passes.
///
/// Set-up probes and jobs=1 timed passes run on the usable CPUs in turn.
/// Left to the scheduler, every child of a run lands on the same CPU, so
/// one slow CPU (a busy neighbour on its physical core) slows a whole run;
/// in turn, each CPU weighs equally in every run. Jobs>1 passes stay
/// unpinned: their worker threads already spread over the CPUs.
void timedRun(const Args &A, const std::vector<Scenario> &Sc,
              const SynthOptions &Opts, Checks &C, Result &Res) {
  const size_t N = Sc.size();
  std::vector<int> Cpus = usableCpuIds();
  if (Cpus.empty())
    Cpus.push_back(-1);
  auto CpuFor = [&](unsigned I) { return Cpus[I % Cpus.size()]; };
  std::vector<double> SetupS;
  unsigned Probed = 0;
  // Runs set-up probes until Upto of them have been made.
  auto ProbeSetup = [&](unsigned Upto) {
    for (; Probed < Upto; ++Probed) {
      double S = probeSetupS(A.Workload, A.Seed, CpuFor(Probed));
      if (S < 0)
        C.add(-1, "set-up probe failed");
      else
        SetupS.push_back(S);
    }
  };

  struct FirstCall {
    std::string Hash;
    size_t Vcs = 0, Iters = 0;
    double VerifyS = 0;
  };
  std::vector<std::vector<double>> Walls(N);
  std::vector<std::optional<FirstCall>> First(N);
  std::vector<std::string> SiblingHash(N, "none");
  double PeakRssMb = -1;
  std::vector<double> TimedPeakMb; ///< Per timed pass, per-thread arenas.
  double TimedS = 0;
  Timer Run;
  for (unsigned Pass = 0; Pass == 0 || TimedS < A.Seconds; ++Pass) {
    ProbeSetup(static_cast<unsigned>(SetupProbes *
                                     std::min(1.0, TimedS / A.Seconds)));
    std::vector<std::string> ChildArgs = {"--pass", "--workload", A.Workload,
                                          "--seed", std::to_string(A.Seed)};
    if (Pass == 0)
      ChildArgs.push_back("--check");
    else if (Opts.Jobs == 1)
      ChildArgs.insert(ChildArgs.end(),
                       {"--cpu", std::to_string(CpuFor(Pass - 1))});
    std::optional<std::string> Out = runChild(ChildArgs);
    std::vector<std::string> Lines;
    for (size_t Pos = 0; Out && Pos < Out->size();) {
      size_t Nl = Out->find('\n', Pos);
      Nl = Nl == std::string::npos ? Out->size() : Nl;
      Lines.push_back(Out->substr(Pos, Nl - Pos));
      Pos = Nl + 1;
    }
    size_t Calls = 0;
    double Peak = -1;
    for (const std::string &L : Lines) {
      int Id = -1, Used = 0;
      double Wall = 0, VerifyS = 0;
      size_t Vcs = 0, Iters = 0;
      char Hash[32];
      if (std::sscanf(L.c_str(), "call %d %lf %31s %zu %zu %lf", &Id, &Wall,
                      Hash, &Vcs, &Iters, &VerifyS) == 6 &&
          Id >= 0 && static_cast<size_t>(Id) < N) {
        ++Calls;
        if (Pass > 0) {
          TimedS += Wall;
          Walls[Id].push_back(Wall);
        }
        if (std::string(Hash) == "-")
          continue;
        if (!First[Id])
          First[Id] = FirstCall{Hash, Vcs, Iters, VerifyS};
        else if (First[Id]->Hash != Hash)
          C.fail(Sc[Id], "prog_hash differs across repetitions");
      } else if (std::sscanf(L.c_str(), "peak_rss_mb %lf", &Peak) == 1) {
      } else if (std::sscanf(L.c_str(), "sibling %d %31s", &Id, Hash) == 2 &&
                 Id >= 0 && static_cast<size_t>(Id) < N) {
        SiblingHash[Id] = Hash;
      } else if (std::sscanf(L.c_str(), "fail %d %n", &Id, &Used) == 1 &&
                 Id >= -1 && Id < static_cast<int>(N)) {
        C.add(Id, L.substr(static_cast<size_t>(Used)));
      }
    }
    if (Calls != N || Peak < 0) {
      C.add(-1, "pass process failed");
      break;
    }
    if (Pass == 0)
      PeakRssMb = Peak;
    else
      TimedPeakMb.push_back(Peak);
  }
  const double RunS = Run.elapsedSeconds();
  ProbeSetup(SetupProbes);

  double WallS = 0, MaxS = 0;
  size_t Calls = 0;
  for (const Scenario &S : Sc) {
    double M = Walls[S.Id].empty() ? 0 : median(Walls[S.Id]);
    WallS += M;
    MaxS = std::max(MaxS, M);
    Calls += Walls[S.Id].size();
    FirstCall F = First[S.Id].value_or(FirstCall{"none"});
    std::string J = "{\"id\": " + std::to_string(S.Id) +
                    ", \"name\": " + jsonStr(S.Spec.Name) +
                    ", \"tables\": " + std::to_string(S.Spec.NumTables) +
                    ", \"attrs\": " + std::to_string(S.Spec.NumAttrs) +
                    ", \"funcs\": " + std::to_string(S.Spec.NumFuncs) +
                    ", \"renamed_attrs\": " +
                    std::to_string(S.Spec.RenamedAttrs) +
                    ", \"added_attrs\": " + std::to_string(S.Spec.AddedAttrs) +
                    ", \"prog_hash\": " + jsonStr(F.Hash) +
                    ", \"vcs\": " + std::to_string(F.Vcs) +
                    ", \"iters\": " + std::to_string(F.Iters) +
                    ", \"verify_s\": " + jsonNum(F.VerifyS) +
                    ", \"median_s\": " + jsonNum(M) + ", \"samples_s\": [";
    for (size_t I = 0; I < Walls[S.Id].size(); ++I)
      J += (I ? ", " : "") + jsonNum(Walls[S.Id][I]);
    J += "]";
    if (Opts.Jobs > 1)
      J += ", \"jobs1_prog_hash\": " + jsonStr(SiblingHash[S.Id]);
    Res.ScenarioJson.push_back(J + "}");
  }

  Res.Metrics.add("wall_s", WallS, "s");
  Res.Metrics.add("scenario_s.max", MaxS, "s");
  Res.Metrics.add("peak_rss_mb", PeakRssMb, "MB");
  Res.Metrics.add("setup_s", SetupS.empty() ? 0 : median(SetupS), "s");
  Res.InfoJson.push_back("\"synthesize_calls\": " + std::to_string(Calls));
  Res.InfoJson.push_back("\"passes_s\": " + jsonNum(RunS));
  auto List = [](const char *Key, const std::vector<double> &V) {
    std::string Out = "\"" + std::string(Key) + "\": [";
    for (size_t I = 0; I < V.size(); ++I)
      Out += (I ? ", " : "") + jsonNum(V[I]);
    return Out + "]";
  };
  Res.InfoJson.push_back(List("timed_pass_peak_rss_mb", TimedPeakMb));
  Res.InfoJson.push_back(List("setup_probes_s", SetupS));
}

/// The traced run: per scenario, synthesize() with the metrics registry on,
/// the span-recorded re-drive at jobs=1, then the tester, verifier and
/// evaluator on the final program; for -j4 workloads also synthesize() at
/// the workload's jobs, wrapped in one span.
void tracedRun(const Args &A, const std::vector<Scenario> &Sc,
               const SynthOptions &Opts, double GenerateS, Checks &C,
               Result &Res) {
  SpanRecorder Spans;
  LayerTotals L;
  L.GenerateS = GenerateS;
  const SynthOptions J1 = optionsFor(1);

  for (const Scenario &S : Sc) {
    // Reference run with the metrics registry on: counts, stats, program.
    obs::setMetricsEnabled(true);
    Timer RefT;
    double Cpu0 = processCpuS();
    SynthResult Ref = synthesize(S.B.Source, S.B.Prog, S.B.Target, J1);
    double RefCpu = processCpuS() - Cpu0;
    double RefWall = RefT.elapsedSeconds();
    obs::setMetricsEnabled(false);
    if (!Ref.succeeded()) {
      C.fail(S, Ref.Stats.TimedOut ? "timed out" : "synthesis failed");
      continue;
    }
    const std::string RefHash = progHash(*Ref.Prog);
    L.SynthSeqsJ1 += counter(Ref.Metrics, "tester.sequences_run");

    SpanScope Root(Spans, "scenario", S.Id);
    Redrive D = redrive(S, J1, Spans);
    const std::vector<Span> &All = Spans.spans();
    std::vector<double> SelfS = Spans.selfTimesS();
    L.PipelineWallS += All[D.LastSpan - 1].EndS - All[D.FirstSpan].StartS;
    for (int I = D.FirstSpan; I < D.LastSpan; ++I) {
      if (All[I].Parent != Root.index())
        continue;
      L.PipelineSelfS += SelfS[I];
      if (All[I].Name == "sat.encode" || All[I].Name == "sat.draw")
        L.ProbeS += SelfS[I];
    }
    if (!D.Prog || progHash(*D.Prog) != RefHash ||
        D.NumVcs != Ref.Stats.NumVcs || D.Agg.Iters != Ref.Stats.Iters)
      C.fail(S, "re-driven pipeline disagrees with synthesize() (vcs " +
                    std::to_string(D.NumVcs) + " vs " +
                    std::to_string(Ref.Stats.NumVcs) + ", iters " +
                    std::to_string(D.Agg.Iters) + " vs " +
                    std::to_string(Ref.Stats.Iters) + ")");
    L.Vcs += D.NumVcs;
    L.Unsupported += D.Unsupported;
    L.Sketches += D.NumVcs - D.Unsupported;
    L.Holes += D.Holes;
    L.DrawUs.insert(L.DrawUs.end(), D.DrawUs.begin(), D.DrawUs.end());
    L.SatCalls += D.Agg.SatCalls;
    L.SatConflicts += D.Agg.SatConflicts;
    L.Iters += D.Agg.Iters;
    L.MfiHits += D.Agg.MfiPruneHits;
    L.MfiMisses += D.Agg.MfiPruneMisses;
    L.InSolveVerifyS += D.Agg.VerifyTimeSec;
    L.CorpusKills += counter(Ref.Metrics, "tester.corpus_kills");
    L.CorpusReplays += counter(Ref.Metrics, "tester.corpus_replays");

    // Untraced, metrics off: the wall the re-drive is compared against.
    {
      Timer T;
      synthesize(S.B.Source, S.B.Prog, S.B.Target, J1);
      L.UntracedWallS += T.elapsedSeconds();
    }

    {
      SpanScope Sp(Spans, "synth.tester.test", S.Id);
      EquivalenceTester T(S.B.Source, S.B.Prog, S.B.Target, J1.Solver.Test);
      Timer Tt;
      if (!T.test(*Ref.Prog).isEquivalent())
        C.fail(S, "bounded tester rejects the synthesized program");
      L.TesterS += Tt.elapsedSeconds();
      L.TesterSeqs += T.getNumSequencesRun();
    }
    {
      SpanScope Sp(Spans, "synth.verify.test", S.Id);
      EquivalenceTester V(S.B.Source, S.B.Prog, S.B.Target,
                          SolverOptions::deeperDefaults());
      Timer Tv;
      if (!V.test(*Ref.Prog).isEquivalent())
        C.fail(S, "deep verifier rejects the synthesized program");
      L.VerifyS += Tv.elapsedSeconds();
      L.VerifySeqs += V.getNumSequencesRun();
    }
    {
      SpanScope Sp(Spans, "eval.source", S.Id);
      timeEval(S.B.Prog, S.B.Source, mixSeed(A.Seed, S.Id, 2), L);
    }
    {
      SpanScope Sp(Spans, "eval.synthesized", S.Id);
      timeEval(*Ref.Prog, S.B.Target, mixSeed(A.Seed, S.Id, 3), L);
    }
    checkIndependently(S, *Ref.Prog, A.Seed, C);

    // Registry counts and CPU time at the workload's own jobs setting.
    const SynthResult *AtJobs = &Ref;
    double Wall = RefWall, Cpu = RefCpu;
    SynthResult Par;
    if (Opts.Jobs > 1) {
      SpanScope Sp(Spans, "synthesize", S.Id);
      obs::setMetricsEnabled(true);
      Timer Tp;
      double C0 = processCpuS();
      Par = synthesize(S.B.Source, S.B.Prog, S.B.Target, Opts);
      Cpu = processCpuS() - C0;
      Wall = Tp.elapsedSeconds();
      obs::setMetricsEnabled(false);
      AtJobs = &Par;
      if (!Par.succeeded() || progHash(*Par.Prog) != RefHash)
        C.fail(S, "prog_hash differs from the jobs=1 sibling");
    }
    const obs::MetricsSnapshot &M = AtJobs->Metrics;
    L.SynthSeqs += counter(M, "tester.sequences_run");
    L.IndexProbes += counter(M, "eval.index_probes");
    L.CowClones += counter(M, "table.cow_clones");
    L.CowShares += counter(M, "table.cow_shares");
    L.PoolTasks += counter(M, "pool.tasks");
    L.PoolSteals += counter(M, "pool.steals");
    L.SrcHits += counter(M, "tester.src_cache_hits");
    L.SrcMisses += counter(M, "tester.src_cache_misses");
    L.SynthCpuS += Cpu;
    L.SynthWallS += Wall;
  }

  std::map<std::string, double> ByName = Spans.selfTimeByName();
  auto Self = [&ByName](const char *N) {
    auto It = ByName.find(N);
    return It == ByName.end() ? 0.0 : It->second;
  };
  const double VcS = Self("vc.init") + Self("vc.next");
  const double SearchS = Self("synth.solve") - L.InSolveVerifyS;
  // The re-driven scenario wall without the standalone SAT probes, which
  // are work synthesize() does not do.
  const double RedrivenS = L.PipelineWallS - L.ProbeS;
  const double Coverage = ratio(L.PipelineSelfS, L.PipelineWallS);
  const double Overhead = ratio(RedrivenS, L.UntracedWallS) - 1;
  if (std::fabs(Coverage - 1) > 0.03)
    C.add(-1, "layer self times cover only " +
                         jsonNum(100 * Coverage) +
                         "% of the re-driven wall");

  MetricList &Mt = Res.Metrics;
  Mt.add("benchsuite.generate_s", L.GenerateS, "s");
  Mt.add("vc.next_s", Self("vc.next"), "s");
  Mt.add("vc.init_s", Self("vc.init"), "s");
  Mt.add("vc.count", static_cast<double>(L.Vcs), "count");
  Mt.add("sketch.generate_s", Self("sketch.generate"), "s");
  Mt.add("sketch.holes", ratio(L.Holes, L.Sketches), "count");
  Mt.add("sketch.unsupported_ratio", ratio(L.Unsupported, L.Vcs), "ratio");
  Mt.add("sat.encode_s", Self("sat.encode"), "s");
  Mt.add("sat.draw_us.p50", L.DrawUs.empty() ? 0 : median(L.DrawUs), "us");
  Mt.add("sat.calls", static_cast<double>(L.SatCalls), "count");
  Mt.add("sat.conflicts", static_cast<double>(L.SatConflicts), "count");
  Mt.add("synth.solve_s", Self("synth.solve"), "s");
  Mt.add("synth.search_s", SearchS, "s");
  Mt.add("synth.iters", static_cast<double>(L.Iters), "count");
  Mt.add("synth.mfi_prune_ratio", ratio(L.MfiHits, L.MfiHits + L.MfiMisses),
         "ratio");
  Mt.add("synth.corpus_kill_ratio", ratio(L.CorpusKills, L.CorpusReplays),
         "ratio");
  Mt.add("synth.tester.sequences", static_cast<double>(L.SynthSeqs), "count");
  Mt.add("synth.tester.seq_per_s", ratio(L.TesterSeqs, L.TesterS), "1/s");
  Mt.add("synth.tester.seq_ratio_vs_j1", ratio(L.SynthSeqs, L.SynthSeqsJ1),
         "ratio");
  Mt.add("synth.verify_s", L.VerifyS, "s");
  Mt.add("synth.verify.sequences", static_cast<double>(L.VerifySeqs), "count");
  Mt.add("synth.verify.seq_per_s", ratio(L.VerifySeqs, L.VerifyS), "1/s");
  Mt.add("synth.verify_frac", ratio(L.VerifyS, L.UntracedWallS), "ratio");
  Mt.add("synth.pipeline_frac",
         ratio(VcS + Self("sketch.generate") + SearchS, RedrivenS), "ratio");
  Mt.add("eval.update_per_s", ratio(L.Updates, L.UpdateS), "1/s");
  Mt.add("eval.query_per_s", ratio(L.Queries, L.QueryS), "1/s");
  Mt.add("eval.index_probes", static_cast<double>(L.IndexProbes), "count");
  Mt.add("relational.cow_clones", static_cast<double>(L.CowClones), "count");
  Mt.add("relational.cow_shares", static_cast<double>(L.CowShares), "count");
  Mt.add("support.pool.tasks", static_cast<double>(L.PoolTasks), "count");
  Mt.add("support.pool.steals", static_cast<double>(L.PoolSteals), "count");
  Mt.add("support.pool.cpu_util",
         ratio(L.SynthCpuS, L.SynthWallS * Opts.Jobs), "ratio");
  Mt.add("synth.cpu_s", L.SynthCpuS, "s");
  Mt.add("synth.src_cache.hit_ratio", ratio(L.SrcHits, L.SrcHits + L.SrcMisses),
         "ratio");
  Mt.add("trace.scenario_wall_s", L.PipelineWallS, "s");
  Mt.add("trace.coverage", Coverage, "ratio");
  Mt.add("trace.overhead_frac", Overhead, "ratio");

  Res.InfoJson.push_back("\"untraced_wall_j1_s\": " +
                         jsonNum(L.UntracedWallS));
  Res.InfoJson.push_back(std::string("\"sat_engine\": ") +
                         (sat::satIncrementalEnabled() ? "\"incremental\""
                                                       : "\"scratch\""));
  if (!A.OutDir.empty()) {
    std::string Path = A.OutDir + "/spans-" + A.Workload + "-seed" +
                       std::to_string(A.Seed) + ".json";
    if (Spans.writeJson(Path))
      Res.InfoJson.push_back("\"spans_file\": " + jsonStr(Path));
    else
      C.add(-1, "could not write " + Path);
  }
}

} // namespace

#if defined(__clang__)
const char *const CompilerName = "clang " __clang_version__;
#else
const char *const CompilerName = "g++ " __VERSION__;
#endif

int main(int Argc, char **Argv) {
  Args A;
  if (!parseArgs(Argc, Argv, A) ||
      (!A.Version && !A.SelfTest && !A.SetupOnly && !A.Pass &&
       A.Seconds <= 0)) {
    std::fprintf(stderr, "usage: synthbench_driver --workload W --seed N "
                         "--seconds S --trace 0|1 [--out-dir DIR]\n");
    return 2;
  }
  if (A.Version) {
    std::printf("{\"compiler\": %s, \"sat_incremental\": %s}\n",
                jsonStr(CompilerName).c_str(),
                sat::satIncrementalEnabled() ? "true" : "false");
    return 0;
  }
  std::string StatsErr = statsSelfTest();
  if (A.SelfTest || !StatsErr.empty()) {
    std::printf("stats self-test: %s\n",
                StatsErr.empty() ? "ok" : StatsErr.c_str());
    return StatsErr.empty() ? 0 : 1;
  }
  const Workload *W = nullptr;
  for (const Workload &Cand : Workloads)
    if (A.Workload == Cand.Name)
      W = &Cand;
  if (!W) {
    std::fprintf(stderr, "unknown workload '%s'\n", A.Workload.c_str());
    return 2;
  }
  if (A.Cpu >= 0 && !pinToCpu(A.Cpu)) {
    std::fprintf(stderr, "cannot run on CPU %d\n", A.Cpu);
    return 1;
  }

  // Set-up: scenario generation, up to the first synthesize() call.
  std::vector<Scenario> Sc;
  Timer Gen;
  for (const GenSpec &Spec : drawSpecs(W->Fam, A.Seed)) {
    Scenario S;
    S.Id = static_cast<int>(Sc.size());
    S.Spec = Spec;
    S.B = generateBenchmark(Spec);
    Sc.push_back(std::move(S));
  }
  const double GenerateS = Gen.elapsedSeconds();
  const SynthOptions Opts = optionsFor(std::min(W->Jobs, usableCpus()));
  if (A.SetupOnly) {
    std::printf("%.9f\n", monotonicS());
    return 0;
  }
  if (A.Pass) {
    runPass(A, Sc, Opts);
    return 0;
  }

  Checks C;
  C.ScenarioFailed.assign(Sc.size(), false);
  Result Res;
  if (A.Trace)
    tracedRun(A, Sc, Opts, GenerateS, C, Res);
  else
    timedRun(A, Sc, Opts, C, Res);

  const size_t Failed = C.numFailed();
  const bool Correct = C.Messages.empty();
  for (const std::string &M : C.Messages)
    std::fprintf(stderr, "synthbench: check failed: %s\n", M.c_str());

  std::string Out = "{\"correct\": " + std::string(Correct ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(Sc.size()) +
                    ", \"failed\": " + std::to_string(Failed) +
                    ", \"metrics\": " + Res.Metrics.json() +
                    ", \"workload\": " + jsonStr(W->Name) +
                    ", \"seed\": " + std::to_string(A.Seed) +
                    ", \"jobs\": " + std::to_string(Opts.Jobs) +
                    ", \"failed_frac\": " +
                    jsonNum(ratio(Failed, Sc.size())) + ", \"checks\": [";
  for (size_t I = 0; I < C.Messages.size(); ++I)
    Out += (I ? ", " : "") + jsonStr(C.Messages[I]);
  Out += "], \"scenarios\": [";
  for (size_t I = 0; I < Res.ScenarioJson.size(); ++I)
    Out += (I ? ", " : "") + Res.ScenarioJson[I];
  Out += "]";
  for (const std::string &F : Res.InfoJson)
    Out += ", " + F;
  std::printf("%s}\n", Out.c_str());
  return Correct ? 0 : 1;
}
