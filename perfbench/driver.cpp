// perfbench driver: the repository benchmark's measuring program.
//
// One binary, three modes:
//
//   perfbench_driver run --workload construct|assemble|serve --seed N
//                    --seconds S --trace 0|1 --work DIR [--scale full|tiny]
//       Generates the workload's inputs from the seed with sim::, runs
//       the program under test on them, applies the correctness gates
//       and prints the metrics. The last stdout line is the result:
//       {"correct":..,"attempted":..,"failed":..,"metrics":{..}}
//   perfbench_driver build ...   one build in a fresh process, so its
//                                peak RSS is its own (wait4 ru_maxrss)
//   perfbench_driver daemon ...  the query daemon under test, in its
//                                own process, serving over TCP loopback
//
// This program calls only the library's public API (pipeline::ParaHash,
// sim::, io::FastxFileReader, core::DeBruijnGraph / FrozenGraph,
// serve::QueryEngine / Daemon / Client) and speaks the documented wire
// protocol. Spans of the traced run are recorded here, around those
// calls, and written out when the run ends.
#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <arpa/inet.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <exception>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <random>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "core/frozen_graph.h"
#include "core/graph.h"
#include "io/fastx.h"
#include "pipeline/parahash.h"
#include "serve/client.h"
#include "serve/daemon.h"
#include "serve/query_engine.h"
#include "sim/read_sim.h"
#include "util/simd.h"
#include "util/telemetry.h"

namespace fs = std::filesystem;
using namespace parahash;

namespace {

// ------------------------------------------------------------ basics

using Clock = std::chrono::steady_clock;

double now_s() {
  return std::chrono::duration<double>(Clock::now().time_since_epoch())
      .count();
}

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

[[noreturn]] void fail(const std::string& message) {
  throw std::runtime_error(message);
}

/// Linear-interpolated quantile (q in [0,1]) of unsorted values.
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double median(const std::vector<double>& v) { return quantile(v, 0.5); }

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) fail("cannot read " + path);
  std::ostringstream s;
  s << in.rdbuf();
  return s.str();
}

/// Parses "key=value" tokens of a line into a map.
std::map<std::string, std::string> parse_kv(const std::string& line) {
  std::map<std::string, std::string> out;
  std::istringstream in(line);
  for (std::string tok; in >> tok;) {
    const auto eq = tok.find('=');
    if (eq != std::string::npos) out[tok.substr(0, eq)] = tok.substr(eq + 1);
  }
  return out;
}

double kv_num(const std::map<std::string, std::string>& kv,
              const std::string& key) {
  const auto it = kv.find(key);
  if (it == kv.end()) fail("missing field " + key);
  return std::stod(it->second);
}

// ------------------------------------------------------------ metrics

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::map<std::string, bool> gates;  ///< gate -> passed every time

  void add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  /// A correctness gate: a failure fails the run, it is not a metric.
  void gate(bool ok, const std::string& what) {
    const auto [it, fresh] = gates.emplace(what, ok);
    if (!fresh) it->second = it->second && ok;
    correct = correct && ok;
  }
};

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  return buf;
}

// ------------------------------------------------------------ tracing

/// In-memory span recorder for the traced run; written as Chrome
/// trace_event JSON when the run ends.
class Spans {
 public:
  struct Span {
    std::string name;
    std::uint64_t id;
    std::uint64_t parent;
    double start;
    double end;
  };

  std::uint64_t begin(const std::string& name, std::uint64_t parent = 0) {
    open_.push_back({name, next_id_++, parent, now_s(), 0});
    return open_.back().id;
  }
  double end(std::uint64_t id) {
    for (auto it = open_.begin(); it != open_.end(); ++it) {
      if (it->id == id) {
        it->end = now_s();
        const double d = it->end - it->start;
        done_.push_back(*it);
        open_.erase(it);
        return d;
      }
    }
    fail("span not open");
  }
  /// A span known only by its start and duration; returns its id.
  std::uint64_t record(const std::string& name, std::uint64_t parent,
                       double start, double seconds) {
    done_.push_back({name, next_id_++, parent, start, start + seconds});
    return done_.back().id;
  }
  void write(const std::string& path) const {
    std::ofstream out(path);
    out << "{\"traceEvents\":[";
    bool first = true;
    for (const Span& s : done_) {
      if (!first) out << ",";
      first = false;
      out << "{\"name\":\"" << s.name << "\",\"ph\":\"X\",\"pid\":1,"
          << "\"tid\":1,\"ts\":" << json_number(s.start * 1e6)
          << ",\"dur\":" << json_number((s.end - s.start) * 1e6)
          << ",\"args\":{\"id\":" << s.id << ",\"parent\":" << s.parent
          << "}}";
    }
    out << "]}\n";
  }

 private:
  std::uint64_t next_id_ = 1;
  std::deque<Span> open_;
  std::vector<Span> done_;
};

// --------------------------------------------------------- subprocess

/// A child process of this same binary, with piped stdin/stdout. The
/// destructor kills and reaps a child still running, so no process
/// outlives the run.
class Child {
 public:
  explicit Child(const std::vector<std::string>& args) {
    int in_pipe[2], out_pipe[2];
    if (pipe(in_pipe) != 0 || pipe(out_pipe) != 0) fail("pipe failed");
    pid_ = fork();
    if (pid_ < 0) fail("fork failed");
    if (pid_ == 0) {
      prctl(PR_SET_PDEATHSIG, SIGKILL);  // never outlive the parent
      dup2(in_pipe[0], 0);
      dup2(out_pipe[1], 1);
      close(in_pipe[0]);
      close(in_pipe[1]);
      close(out_pipe[0]);
      close(out_pipe[1]);
      std::vector<char*> argv;
      for (const auto& a : args) argv.push_back(const_cast<char*>(a.c_str()));
      argv.push_back(nullptr);
      execv("/proc/self/exe", argv.data());
      _exit(127);
    }
    close(in_pipe[0]);
    close(out_pipe[1]);
    in_fd_ = in_pipe[1];
    out_ = fdopen(out_pipe[0], "r");
  }
  ~Child() {
    if (in_fd_ >= 0) close(in_fd_);
    if (pid_ > 0) {
      kill(pid_, SIGKILL);
      waitpid(pid_, nullptr, 0);
    }
    if (out_ != nullptr) fclose(out_);
  }
  Child(const Child&) = delete;
  Child& operator=(const Child&) = delete;

  pid_t pid() const { return pid_; }

  /// Next stdout line (without newline); empty at EOF.
  std::string read_line() {
    char* line = nullptr;
    std::size_t cap = 0;
    const ssize_t n = getline(&line, &cap, out_);
    std::string s = n > 0 ? std::string(line, static_cast<std::size_t>(n))
                          : std::string();
    free(line);
    while (!s.empty() && (s.back() == '\n' || s.back() == '\r')) s.pop_back();
    return s;
  }
  /// Reads lines until one starts with `prefix`; returns the rest.
  std::string expect(const std::string& prefix) {
    for (;;) {
      const std::string line = read_line();
      if (line.empty() && feof(out_)) fail("child exited before " + prefix);
      if (line.rfind(prefix, 0) == 0) return line.substr(prefix.size());
    }
  }
  void write_line(const std::string& line) {
    const std::string s = line + "\n";
    if (write(in_fd_, s.data(), s.size()) != static_cast<ssize_t>(s.size())) {
      fail("write to child failed");
    }
  }
  /// Waits for exit; returns the child's peak RSS in MiB. Throws on a
  /// non-zero exit.
  double wait() {
    if (in_fd_ >= 0) {
      close(in_fd_);
      in_fd_ = -1;
    }
    int status = 0;
    rusage usage{};
    if (wait4(pid_, &status, 0, &usage) != pid_) fail("wait4 failed");
    pid_ = -1;
    if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
      fail("child process failed");
    }
    return static_cast<double>(usage.ru_maxrss) / 1024.0;
  }

 private:
  pid_t pid_ = -1;
  int in_fd_ = -1;
  FILE* out_ = nullptr;
};

/// Flushes the work directory's filesystem so that writeback of files
/// the set-up (or a previous build) wrote does not compete with the
/// next measured interval. Not timed.
void flush_work_dir(const std::string& dir) {
  const int fd = open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd >= 0) {
    syncfs(fd);
    close(fd);
  }
}

/// VmHWM of a live process, in MiB.
double vm_hwm_mb(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/status");
  for (std::string line; std::getline(in, line);) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;
    }
  }
  fail("no VmHWM for pid " + std::to_string(pid));
}

// ------------------------------------------------------------ recipes

constexpr int kK = 27;
constexpr int kP = 11;
constexpr int kThreads = 4;

/// The dataset and build settings of one workload.
struct Recipe {
  std::uint64_t genome_size;
  double coverage;
  double lambda;
  bool step3;
};

/// construct (and the serve snapshots): chr14-like, error-rich reads.
Recipe construct_recipe(bool tiny) {
  return {tiny ? 20'000u : 400'000u, 25.0, 1.0, false};
}
/// assemble: low-error reads at higher coverage; Step 3 on.
Recipe assemble_recipe(bool tiny) {
  return {tiny ? 20'000u : 120'000u, 40.0, 0.1, true};
}

sim::DatasetSpec dataset_spec(const Recipe& r, std::uint64_t seed) {
  sim::DatasetSpec spec;
  spec.name = "perfbench";
  spec.genome_size = r.genome_size;
  spec.read_length = 101;
  spec.coverage = r.coverage;
  spec.lambda = r.lambda;
  spec.seed = seed;
  return spec;
}

pipeline::Options build_options(const Recipe& r, bool fused,
                                const std::string& part_dir) {
  pipeline::Options o;
  o.msp.k = kK;
  o.msp.p = kP;
  o.msp.num_partitions = 64;
  o.hash.lambda = r.lambda;
  o.cpu_threads = kThreads;
  o.fuse_steps = fused;
  o.work_dir = part_dir;
  if (r.step3) {
    // Low-error reads: coverage >= 2 and edge weight >= 2 strip the
    // error kmers; Step 3 clips what survives as tips and bubbles.
    o.step3 = true;
    o.min_coverage = 2;
    o.min_edge_weight = 2;
  }
  return o;
}

// ------------------------------------------------------- build child

/// `build` mode: one construct() in this fresh process. Prints one
/// "RESULT key=value ..." line. `--tour 1` is the traced runs' layer
/// tour: Step 3 on and the .phdg written, whatever the recipe, so that
/// every layer does work on every workload's reads.
int build_main(const std::map<std::string, std::string>& args) {
  const bool tiny = args.at("--scale") == "tiny";
  const std::string recipe_name = args.at("--recipe");
  Recipe r =
      recipe_name == "assemble" ? assemble_recipe(tiny) : construct_recipe(tiny);
  const bool tour = args.at("--tour") == "1";
  if (tour) r.step3 = true;
  const bool fused = args.at("--fused") == "1";
  const std::string out = args.at("--out");
  pipeline::Options o = build_options(r, fused, out + ".parts");
  if (r.step3) {
    o.contigs_out = out + ".fa";
    o.gfa_out = out + ".gfa";
  }
  fs::create_directories(o.work_dir);

  const double t0 = now_s();
  pipeline::ParaHash<1> system(o);
  auto [graph, report] = system.construct(args.at("--input"));
  const double t_built = now_s();
  std::uint64_t graph_bytes = 0;
  if (!r.step3 || tour) graph_bytes = graph.write(out + ".phdg");
  const double t_end = now_s();
  fs::remove_all(o.work_dir);

  // The wall time, then the RunReport fields the traced run lays its
  // spans and per-layer figures from. Printed after the timed interval.
  std::string line = "RESULT";
  const auto put = [&line](const std::string& key, double v) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    line += ' ' + key + '=' + buf;
  };
  const auto put_count = [&line](const std::string& key, std::uint64_t v) {
    line += ' ' + key + '=' + std::to_string(v);
  };
  put("start_s", t0);
  put("build_s", t_end - t0);
  put("write_s", t_end - t_built);
  put_count("vertices", report.graph.vertices);
  put_count("total_coverage", report.graph.total_coverage);
  put_count("graph_bytes", graph_bytes);
  put("total_elapsed_s", report.total_elapsed_seconds);
  put_count("partition_bytes", report.partition_bytes);
  for (const auto& [name, t] :
       {std::pair{"step1", &report.step1.times},
        std::pair{"step2", &report.step2.times},
        std::pair{"step3_scan", &report.step3.times}}) {
    put(std::string(name) + "_s", t->elapsed_seconds);
    put(std::string(name) + "_input_s", t->input_seconds);
    put(std::string(name) + "_compute_s", t->compute_seconds);
    put(std::string(name) + "_output_s", t->output_seconds);
  }
  const auto& table = report.step2_table;
  put_count("upserts", table.adds);
  put_count("inserts", table.inserts);
  put_count("probes", table.probes);
  put("tag_filter_rate", table.tag_filter_rate());
  put_count("lock_waits", table.lock_waits);
  put_count("overflow_hits", table.overflow_hits);
  put_count("migrations", table.migrations);
  const auto& st = report.step3_stats;
  put_count("contigs", st.contigs);
  put_count("contig_bases", st.contig_bases);
  put_count("tips_clipped", st.simplify.tips_clipped);
  put_count("bubbles_popped", st.simplify.bubbles_popped);
  put_count("cross_partition_contigs", st.cross_partition_contigs);
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
  return 0;
}

/// One build child's RESULT line: the wall time (construct call until
/// every output file is closed), its peak RSS and the report fields.
struct ChildBuild {
  double build_s;
  double rss_mb;
  std::uint64_t vertices;
  std::uint64_t total_coverage;
  std::map<std::string, std::string> report;
};

ChildBuild run_build_child(const std::string& recipe, const std::string& input,
                           const std::string& out, bool fused, bool tiny,
                           bool tour = false) {
  flush_work_dir(fs::path(out).parent_path().string());
  Child child({"perfbench_driver", "build", "--recipe", recipe, "--input",
               input, "--out", out, "--fused", fused ? "1" : "0", "--scale",
               tiny ? "tiny" : "full", "--tour", tour ? "1" : "0"});
  ChildBuild b;
  b.report = parse_kv(child.expect("RESULT "));
  b.rss_mb = child.wait();
  b.build_s = kv_num(b.report, "build_s");
  b.vertices = static_cast<std::uint64_t>(kv_num(b.report, "vertices"));
  b.total_coverage =
      static_cast<std::uint64_t>(kv_num(b.report, "total_coverage"));
  return b;
}

// ------------------------------------------------ independent k-mer count

int base_code(char c) {
  switch (c) {
    case 'A': case 'a': return 0;
    case 'C': case 'c': return 1;
    case 'G': case 'g': return 2;
    case 'T': case 't': return 3;
    default: return -1;
  }
}

/// Canonical k-mers (2-bit, forward vs reverse complement) of one
/// sequence, appended to `out`. Written independently of the library.
void canonical_kmers(const std::string& seq, int k, std::vector<std::uint64_t>& out) {
  const std::uint64_t mask = (std::uint64_t{1} << (2 * k)) - 1;
  std::uint64_t fwd = 0, rev = 0;
  int valid = 0;
  const int shift = 2 * (k - 1);
  for (char c : seq) {
    const int b = base_code(c);
    if (b < 0) {
      valid = 0;
      continue;
    }
    fwd = ((fwd << 2) | static_cast<std::uint64_t>(b)) & mask;
    rev = (rev >> 2) | (static_cast<std::uint64_t>(3 - b) << shift);
    if (++valid >= k) out.push_back(std::min(fwd, rev));
  }
}

/// Sort-unique count over a FASTQ file parsed here line by line.
std::pair<std::uint64_t, std::uint64_t> reference_kmer_count(
    const std::string& fastq) {
  std::ifstream in(fastq);
  std::vector<std::uint64_t> kmers;
  std::string header, seq, plus, qual;
  while (std::getline(in, header) && std::getline(in, seq) &&
         std::getline(in, plus) && std::getline(in, qual)) {
    canonical_kmers(seq, kK, kmers);
  }
  const std::uint64_t total = kmers.size();
  std::sort(kmers.begin(), kmers.end());
  const std::uint64_t distinct = static_cast<std::uint64_t>(
      std::unique(kmers.begin(), kmers.end()) - kmers.begin());
  return {distinct, total};
}

/// Share of the genome's distinct canonical k-mers present in contigs.
double genome_kmer_recovery(const std::string& genome, const std::string& fasta) {
  std::vector<std::uint64_t> g;
  canonical_kmers(genome, kK, g);
  std::sort(g.begin(), g.end());
  g.erase(std::unique(g.begin(), g.end()), g.end());
  std::vector<std::uint64_t> c;
  std::istringstream in(fasta);
  std::string record;
  for (std::string line; std::getline(in, line);) {
    if (line.empty() || line[0] != '>') {
      record += line;  // sequence lines of one record may be wrapped
      continue;
    }
    canonical_kmers(record, kK, c);
    record.clear();
  }
  canonical_kmers(record, kK, c);
  std::sort(c.begin(), c.end());
  c.erase(std::unique(c.begin(), c.end()), c.end());
  std::uint64_t hit = 0;
  for (std::uint64_t x : g) hit += std::binary_search(c.begin(), c.end(), x);
  return g.empty() ? 0 : static_cast<double>(hit) / static_cast<double>(g.size());
}

// --------------------------------------------------------- run context

struct RunArgs {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool tiny = false;
  std::string work;
};

void print_samples(const char* what, const std::vector<double>& v) {
  std::printf("%s (%zu):", what, v.size());
  for (double x : v) std::printf(" %.4f", x);
  std::printf("\n");
}

/// Sets up `reps` times (same seed, same bytes) and returns the median
/// set-up time. Each set-up writes into a work directory emptied of the
/// previous one's files, as the first does: overwriting them would time
/// the filesystem's truncation of the old files too.
double timed_setup(const std::string& work, int reps,
                   const std::function<void()>& setup_once) {
  std::vector<double> times;
  for (int i = 0; i < reps; ++i) {
    for (const auto& e : fs::directory_iterator(work)) {
      if (e.is_regular_file()) fs::remove(e.path());
    }
    flush_work_dir(work);
    const double t0 = now_s();
    setup_once();
    times.push_back(now_s() - t0);
  }
  print_samples("setup_s", times);
  return median(times);
}

/// Runs `once` at least `min_reps` times, then while another call, as
/// long as the mean call so far, would end within `seconds`.
void repeat_for(double seconds, int min_reps, int max_reps,
                const std::function<void()>& once) {
  const double t0 = now_s();
  for (int i = 0; i < max_reps; ++i) {
    const double elapsed = now_s() - t0;
    if (i >= min_reps && elapsed + elapsed / i > seconds) break;
    once();
  }
}

/// The traced run's io figure: one FastxFileReader pass over the input,
/// the floor under Step 1's input. Returns the bases read.
std::uint64_t fastx_pass(const std::string& input, Spans& spans, Result& res) {
  flush_work_dir(fs::path(input).parent_path().string());
  std::uint64_t bases = 0;
  const std::uint64_t s = spans.begin("io.fastx_read");
  io::FastxFileReader reader(input);
  io::Read read;
  while (reader.next(read)) bases += read.bases.size();
  res.add("io.fastq_read_s", spans.end(s), "s");
  return bases;
}

/// The per-layer figures of one unfused tour build child, from its
/// RunReport fields; its phases are laid out as spans on the child's own
/// clock (steady_clock is system-wide, so it lines up with this
/// process's).
void unfused_layers(const ChildBuild& b, std::uint64_t bases, Spans& spans,
                    Result& res) {
  const auto f = [&b](const std::string& key) { return kv_num(b.report, key); };
  // The part of the report's total that no step executor covers is the
  // serial stitch.
  const std::vector<std::string> steps = {"step1", "step2", "step3_scan"};
  double steps_s = 0;
  for (const std::string& step : steps) steps_s += f(step + "_s");
  const double stitch = f("total_elapsed_s") - steps_s;
  const double start = f("start_s");
  const std::uint64_t root =
      spans.record("construct.unfused", 0, start, b.build_s);
  double at = start;
  for (const std::string& step : steps) {
    spans.record("pipeline." + step, root, at, f(step + "_s"));
    at += f(step + "_s");
  }
  spans.record("pipeline.stitch", root, at, stitch);
  spans.record("core.graph_write", root, start + b.build_s - f("write_s"),
               f("write_s"));

  res.add("io.partition_bytes_per_base",
          bases == 0 ? 0 : f("partition_bytes") / static_cast<double>(bases),
          "B/base");
  for (const std::string& step : steps) {
    for (const char* part : {"", "_input", "_compute", "_output"}) {
      const std::string key = step + part + "_s";
      res.add("pipeline." + key, f(key), "s");
    }
  }
  res.add("pipeline.stitch_s", stitch, "s");
  res.add("pipeline.unattributed_s",
          b.build_s - steps_s - stitch - f("write_s"), "s");

  const double adds = f("upserts");
  res.add("concurrent.upserts", adds, "count");
  res.add("concurrent.insert_ratio", adds == 0 ? 0 : f("inserts") / adds,
          "ratio");
  res.add("concurrent.upserts_per_s",
          f("step2_compute_s") <= 0 ? 0 : adds / f("step2_compute_s"), "1/s");
  res.add("concurrent.probes_per_upsert", adds == 0 ? 0 : f("probes") / adds,
          "count");
  res.add("concurrent.tag_filter_rate", f("tag_filter_rate"), "ratio");
  res.add("concurrent.lock_waits", f("lock_waits"), "count");
  res.add("concurrent.overflow_hits", f("overflow_hits"), "count");
  res.add("concurrent.migrations", f("migrations"), "count");

  res.add("core.contigs", f("contigs"), "count");
  res.add("core.contig_bases", f("contig_bases"), "count");
  res.add("core.tips_clipped", f("tips_clipped"), "count");
  res.add("core.bubbles_popped", f("bubbles_popped"), "count");
  res.add("core.cross_partition_contigs", f("cross_partition_contigs"),
          "count");
  res.add("core.graph_write_s", f("write_s"), "s");
  res.add("core.graph_bytes", f("graph_bytes"), "B");
}

/// Unfused/fused tour build pairs of the traced run's layer figures.
constexpr int kFusePairs = 3;

/// The graphs the two sides of the layer tour wrote (same reads, so the
/// same graph).
struct TourGraphs {
  std::string unfused, fused;
};

/// The build layers of a traced run, on one dataset's reads: one
/// FastxFileReader pass, then kFusePairs unfused tour builds alternating
/// with as many fused ones, each in a fresh child, so that
/// pipeline.fuse_saved_s compares builds measured alike; the layer
/// breakdown is that of the unfused build with the median wall time.
TourGraphs trace_build_layers(const RunArgs& a, const std::string& recipe,
                              const std::string& reads, Result& res,
                              Spans& spans) {
  const std::uint64_t bases = fastx_pass(reads, spans, res);
  const TourGraphs out{a.work + "/tour_unfused", a.work + "/tour_fused"};
  std::vector<ChildBuild> unfused;
  std::vector<double> unfused_s, fused_s;
  for (int i = 0; i < 2 * kFusePairs; ++i) {
    const bool fused = i % 4 == 1 || i % 4 == 2;  // U F F U U F
    ++res.attempted;
    const ChildBuild b = run_build_child(
        recipe, reads, fused ? out.fused : out.unfused, fused, a.tiny, true);
    if (fused) {
      fused_s.push_back(b.build_s);
    } else {
      unfused.push_back(b);
      unfused_s.push_back(b.build_s);
    }
  }
  res.gate(read_file(out.unfused + ".fa") == read_file(out.fused + ".fa"),
           "tour fused contigs == unfused contigs");
  print_samples((recipe + " tour unfused build_s").c_str(), unfused_s);
  print_samples((recipe + " tour fused build_s").c_str(), fused_s);
  res.add("pipeline.fuse_saved_s", median(unfused_s) - median(fused_s), "s");
  std::sort(unfused.begin(), unfused.end(),
            [](const ChildBuild& x, const ChildBuild& y) {
              return x.build_s < y.build_s;
            });
  unfused_layers(unfused[unfused.size() / 2], bases, spans, res);
  return {out.unfused + ".phdg", out.fused + ".phdg"};
}

// ---------------------------------------------- construct and assemble

/// Datasets per run of a build workload. Build time and memory differ
/// from one random genome to the next (partition skew, how contigs
/// break) by more than repeat builds of one genome do, so each run
/// averages over many datasets made from its seed, one build each.
constexpr std::uint64_t kDatasets = 12;

struct Dataset {
  std::string reads;
  std::string genome;
  std::uint64_t ref_distinct = 0;  ///< construct: sort-unique count
  std::uint64_t ref_total = 0;
  std::vector<double> build_s;
  std::vector<double> rss_mb;
  std::string fasta;  ///< assemble: contigs of the first fused build
  bool fasta_stable = true;
};

void serve_snapshots(const RunArgs& a, const std::string& phdg_a,
                     const std::string& phdg_b, Result& res, Spans& spans);

/// construct (Steps 1+2 fused, then the .phdg write) and assemble
/// (Steps 1-3 fused, FASTA + GFA out). Timed fused builds run in rounds,
/// one per dataset per round, each in a fresh child process; then comes
/// an unfused build of the first dataset, in a fresh child too. The
/// traced run does one round, then tours every layer on the first
/// dataset: the build layers, then the graph it built, served.
void run_build_workload(const RunArgs& a, bool assemble, Result& res,
                        Spans& spans) {
  const Recipe r = assemble ? assemble_recipe(a.tiny) : construct_recipe(a.tiny);
  const std::string name = assemble ? "assemble" : "construct";
  std::vector<Dataset> ds(kDatasets);
  const double setup_s = timed_setup(a.work, a.trace ? 1 : 3, [&] {
    for (std::uint64_t j = 0; j < kDatasets; ++j) {
      ds[j].reads = a.work + "/reads_" + std::to_string(j) + ".fastq";
      ds[j].genome = sim::write_dataset(dataset_spec(r, a.seed * kDatasets + j),
                                        ds[j].reads);
    }
  });
  if (!assemble) {
    for (Dataset& d : ds) {
      std::tie(d.ref_distinct, d.ref_total) = reference_kmer_count(d.reads);
    }
  }
  const auto check_counts = [&](const Dataset& d, std::uint64_t vertices,
                                std::uint64_t coverage, const char* mode) {
    res.gate(vertices == d.ref_distinct && coverage == d.ref_total,
             std::string("construct ") + mode +
                 " vertices/coverage == sort-unique count");
  };

  // One fused build in a fresh child.
  const auto fused_build = [&](Dataset& d) {
    ++res.attempted;
    try {
      const ChildBuild b =
          run_build_child(name, d.reads, a.work + "/fused", true, a.tiny);
      d.build_s.push_back(b.build_s);
      d.rss_mb.push_back(b.rss_mb);
      if (assemble) {
        const std::string fasta = read_file(a.work + "/fused.fa");
        if (d.fasta.empty()) d.fasta = fasta;
        d.fasta_stable = d.fasta_stable && fasta == d.fasta;
      } else {
        check_counts(d, b.vertices, b.total_coverage, "fused");
      }
    } catch (const std::exception& e) {
      std::printf("build failed: %s\n", e.what());
      ++res.failed;
    }
  };
  if (a.trace) {
    for (Dataset& d : ds) fused_build(d);
  } else {
    repeat_for(a.seconds, 1, 100, [&] {
      for (Dataset& d : ds) fused_build(d);
    });
  }
  double build_s = 0, rss_mb = 0;
  for (const Dataset& d : ds) {
    if (d.build_s.empty()) fail("no build succeeded");
    print_samples((name + " fused build_s").c_str(), d.build_s);
    print_samples((name + " fused peak_rss_mb").c_str(), d.rss_mb);
    build_s += median(d.build_s) / kDatasets;
    rss_mb += median(d.rss_mb) / kDatasets;
  }

  // One unfused build of the first dataset, for the gates.
  ++res.attempted;
  const ChildBuild unfused =
      run_build_child(name, ds[0].reads, a.work + "/unfused", false, a.tiny);
  if (assemble) {
    res.gate(!ds[0].fasta.empty() &&
                 ds[0].fasta == read_file(a.work + "/unfused.fa"),
             "assemble fused contigs == unfused contigs");
    for (const Dataset& d : ds) {
      res.gate(d.fasta_stable, "assemble fused contigs identical across runs");
      const double recovery = genome_kmer_recovery(d.genome, d.fasta);
      std::printf("assemble: contigs cover %.4f of genome kmers\n", recovery);
      res.gate(recovery >= 0.95, "assemble contigs cover >= 95% genome kmers");
    }
  } else {
    check_counts(ds[0], unfused.vertices, unfused.total_coverage, "unfused");
  }
  if (a.trace) {
    const TourGraphs g = trace_build_layers(a, name, ds[0].reads, res, spans);
    serve_snapshots(a, g.unfused, g.fused, res, spans);
    return;
  }
  res.add("setup_s", setup_s, "s");
  res.add("ready_s", build_s, "s");
  res.add("peak_rss_mb", rss_mb, "MiB");
}

// --------------------------------------------------------------- serve

/// Expected replies for the keys the load draws from.
struct KeyPools {
  /// [0, read_keys): 80% present in A, 20% absent random kmers; the
  /// rest are vertices of B, drawn only in the SWAP phase.
  std::vector<std::string> find_keys;
  std::size_t read_keys = 0;
  std::vector<std::string> find_expect_a;  ///< FIND payload on snapshot A
  std::vector<std::string> find_expect_b;  ///< ... and on snapshot B
  std::vector<std::string> trav_keys;      ///< Zipf-ranked present keys
  std::vector<std::string> neigh_expect;   ///< NEIGH payload on A
  std::vector<std::string> bfs_expect;     ///< BFS r=2 payload on A
};

constexpr int kBfsRadius = 2;
constexpr std::uint64_t kMaxBfsVertices = 4096;  // ServeOptions default
constexpr int kMfindKeys = 16;

std::string render_find(const serve::QueryEngine::FindResult& r) {
  if (!r.found) return "0";
  std::string line = "1 " + std::to_string(r.coverage);
  for (std::uint32_t e : r.edges) line += ' ' + std::to_string(e);
  return line;
}

std::string join_lines(const std::vector<std::string>& lines) {
  std::string s;
  for (std::size_t i = 0; i < lines.size(); ++i) {
    if (i > 0) s += '\n';
    s += lines[i];
  }
  return s;
}

std::string random_kmer(std::mt19937_64& rng) {
  static const char kBases[] = "ACGT";
  std::string s(kK, 'A');
  for (char& c : s) c = kBases[rng() & 3];
  return s;
}

KeyPools make_key_pools(const std::string& graph_a, const std::string& graph_b,
                        std::uint64_t seed, bool tiny) {
  KeyPools pools;
  std::mt19937_64 rng(seed * 7919 + 17);
  {
    const auto graph = core::DeBruijnGraph<1>::load(graph_a);
    std::vector<std::string> present;
    graph.for_each_vertex([&](const auto& e) {
      if ((rng() & 15) == 0) present.push_back(e.kmer.to_string());
    });
    if (present.empty()) fail("snapshot has no vertices");
    const std::size_t n_find = tiny ? 4096 : 65536;
    for (std::size_t i = 0; i < n_find; ++i) {
      pools.find_keys.push_back(rng() % 5 == 0
                                    ? random_kmer(rng)
                                    : present[rng() % present.size()]);
    }
    pools.read_keys = n_find;
    const std::size_t n_trav = tiny ? 512 : 16384;
    for (std::size_t i = 0; i < n_trav; ++i) {
      pools.trav_keys.push_back(present[rng() % present.size()]);
    }
  }
  {
    // The B snapshot shares no genome with A: its vertices join the
    // pool so SWAP-phase FINDs hit both generations.
    const auto graph = core::DeBruijnGraph<1>::load(graph_b);
    const std::size_t n_b = pools.read_keys / 2;
    graph.for_each_vertex([&](const auto& e) {
      if ((rng() & 15) == 0 && pools.find_keys.size() < pools.read_keys + n_b) {
        pools.find_keys.push_back(e.kmer.to_string());
      }
    });
  }
  std::vector<serve::QueryEngine::FindResult> found;
  serve::load_engine_from_graph(graph_b)->find_many(pools.find_keys, found);
  for (const auto& f : found) pools.find_expect_b.push_back(render_find(f));
  const auto engine_a = serve::load_engine_from_graph(graph_a);
  engine_a->find_many(pools.find_keys, found);
  for (const auto& f : found) pools.find_expect_a.push_back(render_find(f));
  for (const std::string& key : pools.trav_keys) {
    pools.neigh_expect.push_back(join_lines(engine_a->neighbors(key, 1)));
    std::vector<std::string> rows;
    for (const auto& row : engine_a->bfs(key, kBfsRadius, 1, kMaxBfsVertices)) {
      rows.push_back(row.kmer + ' ' + std::to_string(row.depth) + ' ' +
                     std::to_string(row.coverage));
    }
    pools.bfs_expect.push_back(join_lines(rows));
  }
  return pools;
}

/// Zipf(s=1) rank sampler over n items (inverse-CDF table).
class Zipf {
 public:
  explicit Zipf(std::size_t n) : cdf_(n) {
    double acc = 0;
    for (std::size_t i = 0; i < n; ++i) {
      acc += 1.0 / static_cast<double>(i + 1);
      cdf_[i] = acc;
    }
    for (double& c : cdf_) c /= acc;
  }
  std::size_t operator()(std::mt19937_64& rng) const {
    const double u = std::uniform_real_distribution<double>(0, 1)(rng);
    return static_cast<std::size_t>(
        std::lower_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin());
  }

 private:
  std::vector<double> cdf_;
};

enum VerbKind { kVFind = 0, kVMfind, kVNeigh, kVBfs, kVerbs };
const char* kVerbNames[kVerbs] = {"find", "mfind", "neigh", "bfs"};

/// The request mix of one load phase.
struct Mix {
  double weights[kVerbs];
  bool swap_phase;  ///< FIND answers may come from snapshot A or B
};
/// bench/bench_serve's split (50% FIND, 25% MFIND, 25% BFS), with the
/// traversal quarter shared between NEIGH and BFS. No measured traffic
/// stands behind these weights or the Zipf(1) key skew.
constexpr Mix kReadMix{{0.5, 0.25, 0.125, 0.125}, false};
constexpr Mix kSwapMix{{1.0, 0, 0, 0}, true};

/// Outcome of one open-loop phase.
struct PhaseResult {
  double rate = 0;
  double duration = 0;
  std::uint64_t sent = 0;
  std::uint64_t completed = 0;
  std::uint64_t failed = 0;
  std::uint64_t mismatched = 0;
  std::uint64_t backlog_at_end = 0;
  std::vector<double> lat_us;  ///< from scheduled send to full reply
  std::vector<double> lat_at;  ///< scheduled send, s since phase start
  std::vector<double> lag_us;  ///< actual send minus scheduled send

  void merge(PhaseResult&& o) {
    sent += o.sent;
    completed += o.completed;
    failed += o.failed;
    mismatched += o.mismatched;
    backlog_at_end += o.backlog_at_end;
    lat_us.insert(lat_us.end(), o.lat_us.begin(), o.lat_us.end());
    lat_at.insert(lat_at.end(), o.lat_at.begin(), o.lat_at.end());
    lag_us.insert(lag_us.end(), o.lag_us.begin(), o.lag_us.end());
  }
  /// Tail latency: the median over windows of each window's p99. A
  /// window spans about 1000 scheduled requests (at least 100 ms), so
  /// its p99 has ~10 samples beyond it; a multi-millisecond stall of
  /// the host (a descheduled vCPU) spoils the windows it falls in, not
  /// the whole phase.
  double p99() const {
    const double window = std::max(0.1, 1000.0 / rate);
    std::vector<std::vector<double>> windows(
        static_cast<std::size_t>(duration / window) + 1);
    for (std::size_t i = 0; i < lat_us.size(); ++i) {
      const auto w = static_cast<std::size_t>(lat_at[i] / window);
      windows[std::min(w, windows.size() - 1)].push_back(lat_us[i]);
    }
    std::vector<double> p99s;
    for (auto& w : windows) {
      if (w.size() >= 500) p99s.push_back(quantile(std::move(w), 0.99));
    }
    return p99s.empty() ? quantile(lat_us, 0.99) : median(p99s);
  }
  /// The latency objective: p99 <= 1 ms, nothing failed, no backlog
  /// left growing when the send window closed.
  bool meets_slo() const {
    return failed == 0 && mismatched == 0 && completed == sent &&
           p99() <= 1000.0 &&
           static_cast<double>(backlog_at_end) <= 16 + 0.02 * sent;
  }
};

int connect_tcp(std::uint16_t port) {
  const int fd = socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) fail("socket failed");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    close(fd);
    fail("connect refused");
  }
  int one = 1;
  setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  fcntl(fd, F_SETFL, fcntl(fd, F_GETFL) | O_NONBLOCK);
  return fd;
}

/// One pipelined connection driven by an open-loop event loop: sends
/// on a Poisson schedule whatever the replies do, and matches replies
/// to requests in FIFO order (the protocol answers each connection in
/// order).
struct PipelinedConn {
  struct Pending {
    std::int64_t scheduled_ns;
    std::string expect;      ///< expected payload ("" = no check)
    std::string expect_alt;  ///< second acceptable payload (SWAP phase)
  };
  int fd = -1;
  std::int64_t next_ns = 0;
  std::string out;
  std::size_t out_off = 0;
  std::string in;
  std::deque<Pending> pending;
  bool broken = false;
};

class LoadRunner {
 public:
  LoadRunner(const KeyPools& pools, std::uint16_t port)
      : pools_(pools), port_(port), zipf_(pools.trav_keys.size()) {}

  /// Offers `rate` req/s for `seconds` over `conns` connections driven
  /// by `threads` threads, then drains replies (up to 2 s).
  PhaseResult run(double rate, double seconds, int conns, int threads,
                  const Mix& mix, std::uint64_t seed) {
    std::vector<std::vector<int>> owned(static_cast<std::size_t>(threads));
    for (int c = 0; c < conns; ++c) {
      owned[static_cast<std::size_t>(c % threads)].push_back(c);
    }
    const std::int64_t start = now_ns() + 2'000'000;
    start_ns_ = start;
    const std::int64_t end =
        start + static_cast<std::int64_t>(seconds * 1e9);
    std::vector<PhaseResult> parts(static_cast<std::size_t>(threads));
    std::vector<std::exception_ptr> errors(static_cast<std::size_t>(threads));
    std::vector<std::thread> workers;
    for (int t = 0; t < threads; ++t) {
      workers.emplace_back([&, t] {
        const auto i = static_cast<std::size_t>(t);
        try {
          prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0);
          parts[i] = loop(owned[i].size(), rate / conns, start, end, mix,
                          seed * 131 + i);
        } catch (...) {
          errors[i] = std::current_exception();
        }
      });
    }
    for (auto& w : workers) w.join();
    for (const auto& e : errors) {
      if (e) std::rethrow_exception(e);
    }
    PhaseResult total;
    total.rate = rate;
    total.duration = seconds;
    for (auto& p : parts) total.merge(std::move(p));
    return total;
  }

 private:
  void make_request(std::mt19937_64& rng, const Mix& mix,
                    PipelinedConn& c, std::int64_t scheduled) {
    const double u = std::uniform_real_distribution<double>(0, 1)(rng);
    int verb = 0;
    double acc = mix.weights[0];
    while (u > acc && verb + 1 < kVerbs) acc += mix.weights[++verb];
    PipelinedConn::Pending p{scheduled, {}, {}};
    const auto& fk = pools_.find_keys;
    switch (verb) {
      case kVFind: {
        const std::size_t i =
            rng() % (mix.swap_phase ? fk.size() : pools_.read_keys);
        c.out += "FIND " + fk[i] + "\n";
        p.expect = pools_.find_expect_a[i];
        if (mix.swap_phase) p.expect_alt = pools_.find_expect_b[i];
        break;
      }
      case kVMfind: {
        c.out += "MFIND";
        for (int j = 0; j < kMfindKeys; ++j) {
          const std::size_t i = rng() % pools_.read_keys;
          c.out += ' ' + fk[i];
          if (j > 0) p.expect += ' ';
          p.expect += pools_.find_expect_a[i] == "0" ? '0' : '1';
        }
        c.out += '\n';
        break;
      }
      case kVNeigh: {
        const std::size_t i = zipf_(rng);
        c.out += "NEIGH " + pools_.trav_keys[i] + "\n";
        p.expect = pools_.neigh_expect[i];
        break;
      }
      default: {
        const std::size_t i = zipf_(rng);
        c.out += "BFS " + pools_.trav_keys[i] + " " +
                 std::to_string(kBfsRadius) + "\n";
        p.expect = pools_.bfs_expect[i];
        break;
      }
    }
    c.pending.push_back(std::move(p));
  }

  /// Parses complete replies out of c.in; returns false on a protocol
  /// violation.
  bool parse_replies(PipelinedConn& c, PhaseResult& r, std::int64_t now) {
    std::size_t pos = 0;
    for (;;) {
      const std::size_t eol = c.in.find('\n', pos);
      if (eol == std::string::npos) break;
      const std::string_view header(c.in.data() + pos, eol - pos);
      std::size_t body_end = eol + 1;
      bool ok = false;
      std::string payload;
      if (header.rfind("OK ", 0) == 0) {
        const long n = std::strtol(std::string(header.substr(3)).c_str(),
                                   nullptr, 10);
        std::size_t cursor = eol + 1;
        bool complete = true;
        for (long i = 0; i < n; ++i) {
          const std::size_t e = c.in.find('\n', cursor);
          if (e == std::string::npos) {
            complete = false;
            break;
          }
          cursor = e + 1;
        }
        if (!complete) break;
        body_end = cursor;
        if (n > 0) payload.assign(c.in, eol + 1, body_end - eol - 2);
        ok = true;
      } else if (header.rfind("ERR", 0) != 0) {
        return false;
      }
      if (c.pending.empty()) return false;
      PipelinedConn::Pending p = std::move(c.pending.front());
      c.pending.pop_front();
      if (!ok) {
        ++r.failed;
      } else {
        ++r.completed;
        if (payload != p.expect &&
            (p.expect_alt.empty() || payload != p.expect_alt)) {
          ++r.mismatched;
        }
        const double lat = static_cast<double>(now - p.scheduled_ns) / 1e3;
        r.lat_us.push_back(lat);
        r.lat_at.push_back(static_cast<double>(p.scheduled_ns - start_ns_) / 1e9);
      }
      pos = body_end;
    }
    c.in.erase(0, pos);
    return true;
  }

  PhaseResult loop(std::size_t n_conns, double rate_per_conn,
                   std::int64_t start, std::int64_t end, const Mix& mix,
                   std::uint64_t seed) {
    PhaseResult r;
    std::mt19937_64 rng(seed);
    std::exponential_distribution<double> gap(rate_per_conn / 1e9);
    std::vector<PipelinedConn> conns(n_conns);
    for (auto& c : conns) {
      try {
        c.fd = connect_tcp(port_);
      } catch (const std::exception&) {
        c.broken = true;
      }
      c.next_ns = start + static_cast<std::int64_t>(gap(rng));
    }
    const std::int64_t drain_deadline = end + 2'000'000'000;
    bool window_closed = false;
    char buf[1 << 16];
    std::vector<pollfd> pfds(n_conns);
    for (;;) {
      std::int64_t now = now_ns();
      if (!window_closed && now >= end) {
        window_closed = true;
        for (auto& c : conns) r.backlog_at_end += c.pending.size();
      }
      // Send everything due.
      std::int64_t next_due = INT64_MAX;
      for (auto& c : conns) {
        if (c.broken) continue;
        while (c.next_ns <= now && c.next_ns < end) {
          r.lag_us.push_back(static_cast<double>(now - c.next_ns) / 1e3);
          make_request(rng, mix, c, c.next_ns);
          ++r.sent;
          c.next_ns += static_cast<std::int64_t>(gap(rng)) + 1;
        }
        if (c.next_ns < end) next_due = std::min(next_due, c.next_ns);
        if (c.out_off < c.out.size()) {
          const ssize_t n = send(c.fd, c.out.data() + c.out_off,
                                 c.out.size() - c.out_off, MSG_NOSIGNAL);
          if (n > 0) c.out_off += static_cast<std::size_t>(n);
          if (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK) c.broken = true;
          if (c.out_off == c.out.size()) {
            c.out.clear();
            c.out_off = 0;
          }
        }
      }
      bool outstanding = false;
      for (auto& c : conns) outstanding |= !c.broken && !c.pending.empty();
      if (window_closed && (!outstanding || now >= drain_deadline)) break;

      for (std::size_t i = 0; i < n_conns; ++i) {
        pfds[i].fd = conns[i].broken ? -1 : conns[i].fd;
        pfds[i].events = POLLIN;
        if (conns[i].out_off < conns[i].out.size()) pfds[i].events |= POLLOUT;
        pfds[i].revents = 0;
      }
      std::int64_t wait_ns = window_closed ? drain_deadline - now
                                           : std::min(next_due, end) - now;
      if (wait_ns < 0) wait_ns = 0;
      timespec ts{static_cast<time_t>(wait_ns / 1'000'000'000),
                  static_cast<long>(wait_ns % 1'000'000'000)};
      ppoll(pfds.data(), pfds.size(), &ts, nullptr);
      now = now_ns();
      for (std::size_t i = 0; i < n_conns; ++i) {
        PipelinedConn& c = conns[i];
        if (c.broken || !(pfds[i].revents & (POLLIN | POLLHUP | POLLERR))) {
          continue;
        }
        for (;;) {
          const ssize_t n = recv(c.fd, buf, sizeof(buf), 0);
          if (n > 0) {
            c.in.append(buf, static_cast<std::size_t>(n));
            continue;
          }
          if (n == 0 || (errno != EAGAIN && errno != EWOULDBLOCK)) {
            c.broken = true;
          }
          break;
        }
        if (!parse_replies(c, r, now)) c.broken = true;
      }
    }
    for (auto& c : conns) {
      r.failed += c.pending.size();  // refused, timed out or cut off
      if (c.fd >= 0) close(c.fd);
    }
    return r;
  }

  const KeyPools& pools_;
  std::uint16_t port_;
  Zipf zipf_;
  std::int64_t start_ns_ = 0;
};

/// Cumulative registry numbers of the daemon process. The difference of
/// two reads covers exactly the traffic served between them.
struct DaemonCounters {
  using Hist = telemetry::Histogram::Snapshot;
  Hist query;      ///< serve.query_ns
  Hist batch;      ///< serve.batch_size
  Hist swap_load;  ///< serve.swap.load_ns
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;

  /// "count,sum,b0,...,b64"
  static std::string encode(const Hist& h) {
    std::string s = std::to_string(h.count) + ',' + std::to_string(h.sum);
    for (std::uint64_t b : h.buckets) s += ',' + std::to_string(b);
    return s;
  }
  static Hist decode(const std::string& s) {
    std::vector<std::uint64_t> v;
    std::istringstream in(s);
    for (std::string tok; std::getline(in, tok, ',');) {
      v.push_back(std::stoull(tok));
    }
    if (v.size() != 2 + telemetry::Histogram::kBuckets) {
      fail("malformed histogram " + s);
    }
    Hist h;
    h.count = v[0];
    h.sum = v[1];
    std::copy(v.begin() + 2, v.end(), h.buckets.begin());
    return h;
  }
  std::string encode() const {
    return "query=" + encode(query) + " batch=" + encode(batch) +
           " swap_load=" + encode(swap_load) +
           " cache_hits=" + std::to_string(cache_hits) +
           " cache_misses=" + std::to_string(cache_misses);
  }
  static DaemonCounters parse(const std::string& line) {
    const auto kv = parse_kv(line);
    const auto field = [&kv](const std::string& key) {
      const auto it = kv.find(key);
      if (it == kv.end()) fail("missing field " + key);
      return it->second;
    };
    DaemonCounters c;
    c.query = decode(field("query"));
    c.batch = decode(field("batch"));
    c.swap_load = decode(field("swap_load"));
    c.cache_hits = std::stoull(field("cache_hits"));
    c.cache_misses = std::stoull(field("cache_misses"));
    return c;
  }
  DaemonCounters operator-(const DaemonCounters& o) const {
    const auto minus = [](Hist a, const Hist& b) {
      a.count -= b.count;
      a.sum -= b.sum;
      for (std::size_t i = 0; i < a.buckets.size(); ++i) {
        a.buckets[i] -= b.buckets[i];
      }
      return a;
    };
    DaemonCounters d;
    d.query = minus(query, o.query);
    d.batch = minus(batch, o.batch);
    d.swap_load = minus(swap_load, o.swap_load);
    d.cache_hits = cache_hits - o.cache_hits;
    d.cache_misses = cache_misses - o.cache_misses;
    return d;
  }
};

/// The daemon process under test, serving one .phdg snapshot.
class DaemonProcess {
 public:
  DaemonProcess(const std::string& graph, double& load_s) {
    const double t0 = now_s();
    child_ = std::make_unique<Child>(std::vector<std::string>{
        "perfbench_driver", "daemon", "--graph", graph});
    port_ = static_cast<std::uint16_t>(std::stoi(child_->expect("READY ")));
    serve::Client probe;
    probe.connect_tcp("127.0.0.1", port_);
    const auto reply = probe.request("PING");
    if (!reply.ok) fail("daemon did not answer");
    load_s = now_s() - t0;
  }
  std::uint16_t port() const { return port_; }
  pid_t pid() const { return child_->pid(); }

  /// The daemon's registry numbers so far.
  DaemonCounters metrics() {
    child_->write_line("METRICS");
    return DaemonCounters::parse(child_->expect("METRICS "));
  }
  void stop() { child_->wait(); }

 private:
  std::unique_ptr<Child> child_;
  std::uint16_t port_ = 0;
};

/// Histogram quantile interpolated linearly inside its power-of-two
/// bucket (the registry reports only bucket bounds).
double hist_quantile(const telemetry::Histogram::Snapshot& s, double q) {
  if (s.count == 0) return 0;
  const double rank = q * static_cast<double>(s.count);
  double seen = 0;
  for (std::size_t b = 0; b < telemetry::Histogram::kBuckets; ++b) {
    const double n = static_cast<double>(s.buckets[b]);
    if (n > 0 && seen + n >= rank) {
      const double lo = static_cast<double>(telemetry::Histogram::bucket_lo(b));
      const double hi = static_cast<double>(telemetry::Histogram::bucket_hi(b));
      return lo + (hi - lo) * (rank - seen) / n;
    }
    seen += n;
  }
  return static_cast<double>(telemetry::Histogram::bucket_hi(64));
}

/// `daemon` mode: load the snapshot, serve over TCP loopback, answer
/// METRICS requests on stdin, stop at EOF.
int daemon_main(const std::map<std::string, std::string>& args) {
  serve::ServeOptions o;
  o.socket_path = "";
  o.listen = "127.0.0.1:0";
  o.cache_entries = 2048;  // on, so the Zipf-skewed traversals hit it
  serve::Daemon daemon(serve::load_engine_from_graph(args.at("--graph")), o);
  daemon.start();
  std::printf("READY %u\n", static_cast<unsigned>(daemon.tcp_port()));
  std::fflush(stdout);
  auto& reg = telemetry::Registry::global();
  for (std::string line; std::getline(std::cin, line);) {
    if (line != "METRICS") continue;
    DaemonCounters c;
    c.query = reg.histogram("serve.query_ns").snapshot();
    c.batch = reg.histogram("serve.batch_size").snapshot();
    c.swap_load = reg.histogram("serve.swap.load_ns").snapshot();
    c.cache_hits = reg.counter("serve.cache.hits").value();
    c.cache_misses = reg.counter("serve.cache.misses").value();
    std::printf("METRICS %s\n", c.encode().c_str());
    std::fflush(stdout);
  }
  daemon.stop();
  return 0;
}

/// Offered-rate ladder (req/s), past the daemon's saturation on a
/// 4-core host, and the reference rate of lat_p50_us / lat_p99_us.
constexpr double kLadderRates[] = {8000,  16000, 24000, 32000,
                                   40000, 48000, 56000, 64000};
constexpr double kReferenceRate = 4000;

/// The highest throughput meeting the objective: the achieved rate of
/// the highest rung that meets it, interpolated towards the next rung
/// by where that rung's p99 crosses 1 ms (when only latency failed it).
double max_rate_at_slo(const std::vector<PhaseResult>& rungs) {
  constexpr double kSloUs = 1000.0;
  std::size_t best = rungs.size();
  for (std::size_t i = 0; i < rungs.size(); ++i) {
    if (rungs[i].meets_slo()) best = i;
  }
  if (best == rungs.size()) return 0;
  const auto achieved = [](const PhaseResult& p) {
    return static_cast<double>(p.completed) / p.duration;
  };
  const PhaseResult& lo = rungs[best];
  double rate = achieved(lo);
  if (best + 1 < rungs.size()) {
    const PhaseResult& hi = rungs[best + 1];
    const bool latency_only = hi.failed == 0 && hi.mismatched == 0 &&
                              hi.completed == hi.sent &&
                              static_cast<double>(hi.backlog_at_end) <=
                                  16 + 0.02 * static_cast<double>(hi.sent);
    const double p_lo = lo.p99(), p_hi = hi.p99();
    if (latency_only && p_hi > kSloUs && p_hi > p_lo) {
      rate += (achieved(hi) - rate) * (kSloUs - p_lo) / (p_hi - p_lo);
    }
  }
  return rate;
}

/// serve: setup generates two datasets and builds + writes their
/// snapshots with the construct recipe (seeds disjoint from the construct
/// workload's). The traced run tours the build layers on snapshot A's
/// reads first.
void run_serve(const RunArgs& a, Result& res, Spans& spans) {
  const Recipe r = construct_recipe(a.tiny);
  const std::string graph_a = a.work + "/snap_a";
  const std::string graph_b = a.work + "/snap_b";
  const double setup_s = timed_setup(a.work, a.trace ? 1 : 3, [&] {
    const std::uint64_t base = (std::uint64_t{1} << 32) + 2 * a.seed;
    for (const auto& [out, s] : {std::pair{graph_a, base},
                                 std::pair{graph_b, base + 1}}) {
      sim::write_dataset(dataset_spec(r, s), out + ".fastq");
      run_build_child("construct", out + ".fastq", out, true, a.tiny);
    }
  });
  fs::remove(graph_b + ".fastq");
  if (a.trace) trace_build_layers(a, "construct", graph_a + ".fastq", res, spans);
  fs::remove(graph_a + ".fastq");
  flush_work_dir(a.work);
  serve_snapshots(a, graph_a + ".phdg", graph_b + ".phdg", res, spans);
  if (!a.trace) res.add("setup_s", setup_s, "s");
}

/// The serving layers on two snapshots: the daemon in its own process
/// on A, SWAP alternating it between B and A under load. The timed run
/// measures daemon starts, peak memory and SWAP; the traced run adds the
/// in-process engine and the client-side and daemon-side query figures.
void serve_snapshots(const RunArgs& a, const std::string& phdg_a,
                     const std::string& phdg_b, Result& res, Spans& spans) {
  const KeyPools pools = make_key_pools(phdg_a, phdg_b, a.seed, a.tiny);

  if (a.trace) {
    // In-process layers on the same snapshot.
    const std::uint64_t ls = spans.begin("core.graph_load");
    const auto graph = core::DeBruijnGraph<1>::load(phdg_a);
    res.add("core.graph_load_s", spans.end(ls), "s");
    const std::uint64_t fz = spans.begin("core.freeze");
    auto frozen = core::FrozenGraph<1>::freeze(graph);
    res.add("core.freeze_s", spans.end(fz), "s");
    res.add("core.frozen_bytes_per_vertex",
            static_cast<double>(frozen.memory_bytes()) /
                static_cast<double>(frozen.num_vertices()),
            "B");
    const auto engine = serve::make_query_engine<1>(std::move(frozen));
    std::vector<serve::QueryEngine::FindResult> out;
    std::vector<double> find_ns;
    for (int rep = 0; rep < 5; ++rep) {
      const std::uint64_t s = spans.begin("serve.engine_find_many");
      engine->find_many(pools.find_keys, out);
      find_ns.push_back(spans.end(s) * 1e9 /
                        static_cast<double>(pools.find_keys.size()));
    }
    res.add("serve.engine_find_ns", median(find_ns), "ns");
    std::vector<double> bfs_us;
    for (std::size_t i = 0; i < std::min<std::size_t>(2000, pools.trav_keys.size()); ++i) {
      const std::uint64_t s = spans.begin("serve.engine_bfs");
      engine->bfs(pools.trav_keys[i], kBfsRadius, 1, kMaxBfsVertices);
      bfs_us.push_back(spans.end(s) * 1e6);
    }
    res.add("serve.engine_bfs_us", median(bfs_us), "us");
  }

  std::uint64_t mismatched = 0;
  const auto account = [&](const PhaseResult& p) {
    res.attempted += p.sent;
    res.failed += p.failed;
    mismatched += p.mismatched;
  };
  // Between phases: let a released snapshot's memory go back and the
  // previous phase's replies drain before the next schedule starts.
  const auto settle = [] {
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
  };

  // Starts the daemon process on snapshot A `n` times, timing each start
  // until the first answer; the last one stays up.
  std::vector<double> load_times;
  const auto start_daemon = [&](int n) {
    std::unique_ptr<DaemonProcess> daemon;
    for (int i = 0; i < n; ++i) {
      daemon.reset();
      double load_s = 0;
      daemon = std::make_unique<DaemonProcess>(phdg_a, load_s);
      load_times.push_back(load_s);
    }
    return daemon;
  };

  // SWAP phase: FIND load on 3 connections while a fourth alternates
  // the daemon between snapshots B and A.
  std::vector<double> swap_times;
  std::uint64_t swap_mismatched = 0;
  const auto swap_phase = [&](DaemonProcess& daemon, LoadRunner& load,
                              double seconds, std::uint64_t seed) {
    std::atomic<bool> done{false};
    std::thread swapper([&] {
      serve::Client admin;
      bool to_b = true;
      try {
        admin.connect_tcp("127.0.0.1", daemon.port());
      } catch (const std::exception& e) {
        std::printf("admin connection failed: %s\n", e.what());
        ++res.failed;
        return;
      }
      while (!done.load()) {
        const double t0 = now_s();
        try {
          admin.swap(to_b ? phdg_b : phdg_a);
          swap_times.push_back(now_s() - t0);
        } catch (const std::exception& e) {
          std::printf("swap failed: %s\n", e.what());
          ++res.failed;
        }
        ++res.attempted;
        to_b = !to_b;
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
      }
      try {
        if (!to_b) admin.swap(phdg_a);  // end on snapshot A
      } catch (const std::exception& e) {
        std::printf("swap failed: %s\n", e.what());
        ++res.failed;
      }
    });
    settle();
    PhaseResult p;
    try {
      p = load.run(kReferenceRate, seconds, 3, 2, kSwapMix, seed);
    } catch (...) {
      done = true;
      swapper.join();
      throw;
    }
    done = true;
    swapper.join();
    account(p);
    swap_mismatched += p.mismatched;
    std::printf("swap phase: %zu swaps so far, %llu FINDs, p99 %.1f us\n",
                swap_times.size(),
                static_cast<unsigned long long>(p.completed), p.p99());
    return p;
  };
  const auto serve_gates = [&] {
    res.gate(mismatched == 0, "serve replies == in-process QueryEngine");
    res.gate(swap_mismatched == 0,
             "serve SWAP-phase FINDs match snapshot A or B");
    res.gate(!swap_times.empty(), "serve SWAP completed under load");
  };

  if (!a.trace) {
    // The timed run: cycles of daemon starts and a SWAP phase, so that
    // both figures sample the whole run rather than one stretch of it.
    constexpr int kCycles = 8;
    std::vector<double> rss;
    for (int c = 0; c < kCycles; ++c) {
      const auto daemon = start_daemon(3);
      LoadRunner load(pools, daemon->port());
      swap_phase(*daemon, load, a.seconds / kCycles, a.seed * 1000 + 77 + c);
      rss.push_back(vm_hwm_mb(daemon->pid()));
      daemon->stop();
    }
    serve_gates();
    print_samples("serve daemon start to first answer", load_times);
    res.add("ready_s", median(load_times), "s");
    res.add("peak_rss_mb", median(rss), "MiB");
    return;
  }

  // The traced run: lockstep verbs, then the reference rate, a SWAP
  // phase and the ladder in one daemon. Query latency and capacity on a
  // shared VM swing with the host's load far beyond an end-to-end
  // bound, so they are reported here, beside the layer figures that
  // explain them.
  const auto daemon = start_daemon(3);
  LoadRunner load(pools, daemon->port());
  {
    // Lockstep round trips, one span per Client::request.
    serve::Client client;
    client.connect_tcp("127.0.0.1", daemon->port());
    std::mt19937_64 rng(a.seed);
    const int per_verb = a.tiny ? 50 : 400;
    for (int v = 0; v < kVerbs; ++v) {
      std::vector<double> lat;
      for (int i = 0; i < per_verb; ++i) {
        std::string line;
        std::string expect;
        const std::size_t fi = rng() % pools.read_keys;
        const std::size_t ti = rng() % pools.trav_keys.size();
        switch (v) {
          case kVFind:
            line = "FIND " + pools.find_keys[fi];
            expect = pools.find_expect_a[fi];
            break;
          case kVMfind:
            line = "MFIND";
            for (int j = 0; j < kMfindKeys; ++j) {
              const std::size_t k = (fi + static_cast<std::size_t>(j)) %
                                    pools.read_keys;
              line += ' ' + pools.find_keys[k];
              if (j > 0) expect += ' ';
              expect += pools.find_expect_a[k] == "0" ? '0' : '1';
            }
            break;
          case kVNeigh:
            line = "NEIGH " + pools.trav_keys[ti];
            expect = pools.neigh_expect[ti];
            break;
          default:
            line = "BFS " + pools.trav_keys[ti] + " 2";
            expect = pools.bfs_expect[ti];
            break;
        }
        ++res.attempted;
        const std::uint64_t s =
            spans.begin(std::string("client.request.") + kVerbNames[v]);
        const auto reply = client.request(line);
        lat.push_back(spans.end(s) * 1e6);
        if (!reply.ok) ++res.failed;
        else if (join_lines(reply.lines) != expect) ++mismatched;
      }
      res.add(std::string("serve.verb_") + kVerbNames[v] + "_p50_us",
              median(lat), "us");
    }
  }

  // Reference rate: open loop, 4 connections on 2 threads. The daemon's
  // registry is read on both sides of it, so its query, batch and cache
  // figures cover the same traffic as the client latency.
  const double budget = a.seconds;
  std::vector<double> lags;
  const DaemonCounters before_ref = daemon->metrics();
  const PhaseResult ref = load.run(kReferenceRate, budget * 0.25, 4, 2,
                                   kReadMix, a.seed * 1000 + 99);
  const DaemonCounters in_ref = daemon->metrics() - before_ref;
  account(ref);
  lags.insert(lags.end(), ref.lag_us.begin(), ref.lag_us.end());
  std::printf("reference %.0f req/s: %llu replies, p50 %.1f us, p99 %.1f us, "
              "lag p50 %.1f us\n",
              kReferenceRate, static_cast<unsigned long long>(ref.completed),
              quantile(ref.lat_us, 0.5), ref.p99(), quantile(ref.lag_us, 0.5));

  const PhaseResult swaps =
      swap_phase(*daemon, load, budget * 0.2, a.seed * 1000 + 77);

  // Ladder: fixed offered rates, open loop, 4 connections on 2 threads.
  // It runs last: a rung past saturation leaves the daemon a backlog.
  const std::vector<double> rates(std::begin(kLadderRates),
                                  std::end(kLadderRates));
  const double rung_s = std::max(0.25, budget * 0.55 / rates.size());
  std::vector<PhaseResult> rungs;
  for (std::size_t i = 0; i < rates.size(); ++i) {
    settle();
    rungs.push_back(load.run(rates[i], rung_s, 4, 2, kReadMix,
                             a.seed * 1000 + i));
    const PhaseResult& p = rungs.back();
    account(p);
    lags.insert(lags.end(), p.lag_us.begin(), p.lag_us.end());
    std::printf("rung %6.0f req/s: sent %llu p99 %.1f us lag_p99 %.1f us "
                "backlog %llu failed %llu %s\n",
                rates[i], static_cast<unsigned long long>(p.sent), p.p99(),
                quantile(p.lag_us, 0.99),
                static_cast<unsigned long long>(p.backlog_at_end),
                static_cast<unsigned long long>(p.failed),
                p.meets_slo() ? "meets SLO" : "misses SLO");
    char name[64];
    std::snprintf(name, sizeof(name), "serve.rate_%.0f_p99_us", rates[i]);
    res.add(name, p.p99(), "us");
  }

  const DaemonCounters total = daemon->metrics();
  daemon->stop();
  serve_gates();
  std::printf("generator lag p99: %.1f us\n", quantile(lags, 0.99));

  res.add("serve.lat_p50_us", quantile(ref.lat_us, 0.5), "us");
  res.add("serve.lat_p99_us", ref.p99(), "us");
  res.add("serve.max_qps_at_slo", max_rate_at_slo(rungs), "1/s");
  res.add("serve.query_p50_us", hist_quantile(in_ref.query, 0.5) / 1e3, "us");
  res.add("serve.query_p99_us", hist_quantile(in_ref.query, 0.99) / 1e3, "us");
  res.add("serve.batch_size_mean", in_ref.batch.mean(), "count");
  const double hits = static_cast<double>(in_ref.cache_hits);
  const double misses = static_cast<double>(in_ref.cache_misses);
  res.add("serve.cache_hit_ratio",
          hits + misses == 0 ? 0 : hits / (hits + misses), "ratio");
  res.add("serve.snapshot_load_s", median(load_times), "s");
  res.add("serve.swap_s", median(swap_times), "s");
  res.add("serve.swap_load_s", total.swap_load.mean() / 1e9, "s");
  res.add("serve.swap_phase_p99_us", swaps.p99(), "us");
  res.add("serve.generator_lag_p99_us", quantile(lags, 0.99), "us");
}

// ---------------------------------------------------------------- main

std::map<std::string, std::string> parse_flags(int argc, char** argv,
                                               int first) {
  std::map<std::string, std::string> flags;
  for (int i = first; i + 1 < argc; i += 2) flags[argv[i]] = argv[i + 1];
  return flags;
}

int run_main(const std::map<std::string, std::string>& flags) {
  RunArgs a;
  a.workload = flags.at("--workload");
  a.seed = std::stoull(flags.at("--seed"));
  a.seconds = std::stod(flags.at("--seconds"));
  a.trace = flags.at("--trace") == "1";
  a.work = flags.at("--work");
  a.tiny = flags.count("--scale") && flags.at("--scale") == "tiny";
  fs::create_directories(a.work);

  std::printf("host simd_level=%s build_type=%s compiler=%s\n",
              simd::to_string(simd::active()), PERFBENCH_BUILD_TYPE,
              PERFBENCH_COMPILER);
  Result res;
  Spans spans;
  const double t0 = now_s();
  if (a.workload == "construct" || a.workload == "assemble") {
    run_build_workload(a, a.workload == "assemble", res, spans);
  } else if (a.workload == "serve") {
    run_serve(a, res, spans);
  } else {
    fail("unknown workload " + a.workload);
  }
  std::printf("run took %.2f s\n", now_s() - t0);
  if (a.trace) spans.write(a.work + "/trace.json");

  // Human-readable lines first, the result object last.
  for (const auto& [what, ok] : res.gates) {
    std::printf("gate %-52s %s\n", what.c_str(), ok ? "ok" : "FAILED");
  }
  std::printf("metric %-32s %14s %s\n", "failed_ratio",
              json_number(res.attempted == 0
                              ? 0
                              : static_cast<double>(res.failed) /
                                    static_cast<double>(res.attempted))
                  .c_str(),
              "ratio");
  for (const Metric& m : res.metrics) {
    std::printf("metric %-32s %14s %s\n", m.name.c_str(),
                json_number(m.value).c_str(), m.unit.c_str());
  }
  std::string json = "{\"correct\": ";
  json += res.correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(res.attempted);
  json += ", \"failed\": " + std::to_string(res.failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < res.metrics.size(); ++i) {
    const Metric& m = res.metrics[i];
    if (i > 0) json += ", ";
    json += "\"" + m.name + "\": {\"value\": " + json_number(m.value) +
            ", \"unit\": \"" + m.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: perfbench_driver run|build|daemon --flag value ...\n");
    return 2;
  }
  const std::string mode = argv[1];
  const auto flags = parse_flags(argc, argv, 2);
  try {
    if (mode == "run") return run_main(flags);
    if (mode == "build") return build_main(flags);
    if (mode == "daemon") return daemon_main(flags);
    std::fprintf(stderr, "unknown mode %s\n", mode.c_str());
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_driver: %s\n", e.what());
    return 1;
  }
}
