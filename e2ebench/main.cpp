//===- main.cpp - End-to-end benchmark entry point -------------------------===//
//
// Part of the CHET reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Usage: chet_e2e --workload NAME --seed N --seconds S --trace 0|1
///
/// Runs one workload (lenet_client, compile_zoo, serve_mt) in this
/// process and prints, as the last line of standard output, one JSON
/// object {correct, attempted, failed, metrics}. Untraced runs report the
/// end-to-end metrics; traced runs report the per-layer metrics and also
/// write them, with the recorded spans, to
/// .bench_trace/<workload>-seed<N>.json under the working directory.
///
//===----------------------------------------------------------------------===//

#include "Harness.h"

#include "support/Error.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <fstream>
#include <numeric>
#include <sstream>
#include <unistd.h>

namespace e2e {
namespace {

const auto ProcessStart = std::chrono::steady_clock::now();

struct MetricDecl {
  std::string Name;
  std::string Unit;
};

/// The end-to-end metrics, measured in untraced runs of every workload.
/// An "operation" is one warm encrypted inference (lenet_client), one
/// compile of the whole zoo on both schemes (compile_zoo), or one request
/// from submit to response (serve_mt).
const MetricDecl EndToEnd[] = {
    {"setup_s", "s"},
    {"op_p50_s", "s"},
    {"ops_per_s", "1/s"},
    {"peak_rss_mb", "MiB"},
};

const char *const HisaOps[] = {
    "encode", "decode",    "encrypt",   "decrypt",    "copy",
    "freeCt", "rotLeft",   "rotRight",  "rotLeftMany", "add",
    "sub",    "addPlain",  "subPlain",  "addScalar",  "subScalar",
    "mul",    "mulPlain",  "mulScalar", "maxRescale", "rescale"};

/// Node labels of LeNet-5-small, the circuit lenet_client times per node.
const char *const LenetNodes[] = {"input", "conv1", "act1", "pool1",
                                  "conv2", "act2",  "pool2", "fc1",
                                  "act3",  "fc2",   "act4"};

std::vector<MetricDecl> perLayerDecls() {
  std::vector<MetricDecl> Out = {
      {"core.validate_s", "s"},
      {"core.verify_s", "s"},
      {"core.noise_s", "s"},
      {"core.footprint_s", "s"},
      {"ckks.keygen_s", "s"},
      {"ckks.key_mb", "MiB"},
      {"ckks.rotation_keys", "count"},
      {"ckks.chain_primes", "count"},
      {"ckks.log_n", "log2"},
      {"ckks.ks_forward_ntts", "count"},
      {"ckks.ks_inverse_ntts", "count"},
      {"ckks.ks_rotations", "count"},
      {"ckks.ks_hoisted_amounts", "count"},
      {"runtime.encrypt_s", "s"},
      {"runtime.evaluate_s", "s"},
      {"runtime.decrypt_s", "s"},
      {"runtime.ptcache_hits", "count"},
      {"runtime.ptcache_misses", "count"},
      {"support.pool_misses", "count"},
      {"support.pool_high_water_mb", "MiB"},
      {"support.governor_high_water_mb", "MiB"},
      {"server.queue_p50_s", "s"},
      {"server.service_p50_s", "s"},
      {"server.latency_p90_s", "s"},
      {"server.lane_busy", "ratio"},
      {"server.queue_high_water", "count"},
      {"trace.overhead", "ratio"},
  };
  for (const char *Op : HisaOps) {
    Out.push_back({std::string("hisa.") + Op + ".count", "count"});
    Out.push_back({std::string("hisa.") + Op + "_s", "s"});
  }
  for (const char *Node : LenetNodes)
    Out.push_back({std::string("node.") + Node + "_s", "s"});
  return Out;
}

std::vector<MetricDecl> declsFor(bool Traced) {
  if (Traced)
    return perLayerDecls();
  return {std::begin(EndToEnd), std::end(EndToEnd)};
}

const MetricDecl *findDecl(const std::vector<MetricDecl> &Decls,
                           const std::string &Name) {
  for (const MetricDecl &D : Decls)
    if (Name == D.Name)
      return &D;
  return nullptr;
}

std::string num(double V) {
  char Buf[40];
  std::snprintf(Buf, sizeof(Buf), "%.17g", V);
  return Buf;
}

std::string quoted(const std::string &S) {
  std::string Out = "\"";
  for (char C : S) {
    if (C == '"' || C == '\\')
      Out += '\\';
    Out += C;
  }
  return Out + "\"";
}

[[noreturn]] void usage(const char *Why) {
  std::fprintf(stderr,
               "chet_e2e: %s\nusage: chet_e2e --workload "
               "lenet_client|compile_zoo|serve_mt --seed N --seconds S "
               "--trace 0|1\n",
               Why);
  std::exit(2);
}

RunOptions parseArgs(int Argc, char **Argv) {
  RunOptions O;
  bool HaveSeed = false, HaveSeconds = false, HaveTrace = false;
  for (int I = 1; I < Argc; ++I) {
    std::string Flag = Argv[I];
    if (I + 1 >= Argc)
      usage(("missing value for " + Flag).c_str());
    const char *Value = Argv[++I];
    char *End = nullptr;
    if (Flag == "--workload") {
      O.Workload = Value;
    } else if (Flag == "--seed") {
      O.Seed = std::strtoull(Value, &End, 10);
      HaveSeed = *Value && !*End;
    } else if (Flag == "--seconds") {
      O.Seconds = std::strtod(Value, &End);
      HaveSeconds = *Value && !*End && O.Seconds > 0 && O.Seconds <= 3600;
    } else if (Flag == "--trace") {
      HaveTrace = !std::strcmp(Value, "0") || !std::strcmp(Value, "1");
      O.Trace = !std::strcmp(Value, "1");
    } else {
      usage(("unknown flag " + Flag).c_str());
    }
  }
  if (O.Workload.empty() || !HaveSeed || !HaveSeconds || !HaveTrace)
    usage("--workload, --seed, --seconds (0 < S <= 3600) and --trace are "
          "all required");
  return O;
}

} // namespace

double sinceStart() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       ProcessStart)
      .count();
}

Run::Run(RunOptions Options) : Opts(std::move(Options)) {
  if (Opts.Trace)
    for (const MetricDecl &D : perLayerDecls())
      Metrics[D.Name] = 0;
}

void Run::metric(const std::string &Name, double Value) {
  CHET_CHECK(findDecl(declsFor(Opts.Trace), Name), InvalidArgument,
             "metric '", Name, "' is not declared for ",
             Opts.Trace ? "traced" : "untraced", " runs");
  Metrics[Name] = Value;
}

void Run::fail(const std::string &What) {
  Correct = false;
  std::fprintf(stderr, "chet_e2e: WRONG OUTPUT: %s\n", What.c_str());
}

int Run::beginSpan(const std::string &Name, int Parent, uint64_t Request) {
  if (!Opts.Trace)
    return -1;
  double T = sinceStart();
  Spans.push_back({Name, T, T, Parent, Request});
  return static_cast<int>(Spans.size()) - 1;
}

void Run::endSpan(int Id) {
  if (Id >= 0)
    Spans[Id].End = sinceStart();
}

void Run::addSpan(const std::string &Name, double Start, double End,
                  int Parent, uint64_t Request) {
  if (Opts.Trace)
    Spans.push_back({Name, Start, End, Parent, Request});
}

std::string Run::resultJson(std::string &Error) const {
  std::ostringstream OS;
  OS << "{\"correct\": " << (Correct ? "true" : "false")
     << ", \"attempted\": " << Attempted << ", \"failed\": " << Failed
     << ", \"metrics\": {";
  bool First = true;
  for (const MetricDecl &D : declsFor(Opts.Trace)) {
    auto It = Metrics.find(D.Name);
    if (It == Metrics.end() || !std::isfinite(It->second)) {
      Error = "metric " + D.Name + " was not measured";
      return "";
    }
    OS << (First ? "" : ", ") << quoted(D.Name) << ": {\"value\": "
       << num(It->second) << ", \"unit\": " << quoted(D.Unit) << "}";
    First = false;
  }
  OS << "}}";
  return OS.str();
}

std::string Run::traceJson() const {
  std::ostringstream OS;
  OS << "{\"workload\": " << quoted(Opts.Workload)
     << ", \"seed\": " << Opts.Seed << ", \"seconds\": " << num(Opts.Seconds)
     << ",\n \"metrics\": {";
  bool First = true;
  for (const auto &[Name, Value] : Metrics) {
    OS << (First ? "" : ", ") << quoted(Name) << ": " << num(Value);
    First = false;
  }
  OS << "},\n \"spans\": [";
  for (size_t I = 0; I < Spans.size(); ++I) {
    const Span &S = Spans[I];
    OS << (I ? ",\n  " : "\n  ") << "{\"id\": " << I
       << ", \"name\": " << quoted(S.Name) << ", \"start\": " << num(S.Start)
       << ", \"end\": " << num(S.End) << ", \"parent\": " << S.Parent
       << ", \"request\": " << S.Request << "}";
  }
  OS << "]}\n";
  return OS.str();
}

double median(std::vector<double> V) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  size_t Mid = V.size() / 2;
  return V.size() % 2 ? V[Mid] : (V[Mid - 1] + V[Mid]) / 2;
}

double sum(const std::vector<double> &V) {
  return std::accumulate(V.begin(), V.end(), 0.0);
}

uint64_t currentRssBytes() {
  std::ifstream In("/proc/self/statm");
  uint64_t Size = 0, Resident = 0;
  In >> Size >> Resident;
  return Resident * static_cast<uint64_t>(sysconf(_SC_PAGESIZE));
}

double peakRssMb() {
  rusage U{};
  getrusage(RUSAGE_SELF, &U);
  return double(U.ru_maxrss) / 1024.0; // ru_maxrss is in KiB
}

} // namespace e2e

int main(int Argc, char **Argv) {
  using namespace e2e;
  RunOptions Opts = parseArgs(Argc, Argv);
  Run R(Opts);
  try {
    if (Opts.Workload == "lenet_client")
      runLenetClient(R);
    else if (Opts.Workload == "compile_zoo")
      runCompileZoo(R);
    else if (Opts.Workload == "serve_mt")
      runServeMt(R);
    else
      usage(("unknown workload " + Opts.Workload).c_str());
  } catch (const std::exception &E) {
    std::fprintf(stderr, "chet_e2e: %s aborted: %s\n", Opts.Workload.c_str(),
                 E.what());
    return 1;
  }

  std::string Error;
  std::string Result = R.resultJson(Error);
  if (Result.empty()) {
    std::fprintf(stderr, "chet_e2e: %s\n", Error.c_str());
    return 1;
  }
  if (Opts.Trace) {
    std::filesystem::create_directories(".bench_trace");
    std::string Path = ".bench_trace/" + Opts.Workload + "-seed" +
                       std::to_string(Opts.Seed) + ".json";
    std::ofstream(Path) << R.traceJson();
    std::fprintf(stderr, "chet_e2e: trace written to %s\n", Path.c_str());
  }
  std::fflush(stderr);
  std::printf("%s\n", Result.c_str());
  return 0;
}
