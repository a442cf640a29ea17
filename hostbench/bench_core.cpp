#include "bench_core.h"

#include <sys/mman.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory_resource>
#include <set>
#include <sstream>
#include <unordered_map>

#include "common/json.h"

namespace hostbench {

namespace sim = rop::sim;

namespace {

sim::ExperimentSpec lbm_rop_exact(std::uint64_t seed) {
  sim::ExperimentSpec spec = sim::single_core_spec("lbm", sim::MemoryMode::kRop);
  spec.instructions_per_core = 20'000'000;
  spec.max_cpu_cycles = spec.instructions_per_core * 256;
  spec.seed_salt = seed;
  return spec;
}

sim::ExperimentSpec wl1_darp_sharded(std::uint64_t seed) {
  sim::ExperimentSpec spec =
      sim::multi_core_spec(1, sim::MemoryMode::kDarp, false);
  spec.channels = 4;
  spec.shard_channels = 2;
  spec.instructions_per_core = 20'000'000;
  spec.max_cpu_cycles = spec.instructions_per_core * 256;
  spec.seed_salt = seed;
  return spec;
}

sim::ExperimentSpec lbm_rop_sampled(std::uint64_t seed) {
  sim::ExperimentSpec spec = sim::single_core_spec("lbm", sim::MemoryMode::kRop);
  spec.instructions_per_core = 3'000'000'000;
  spec.max_cpu_cycles = spec.instructions_per_core * 256;
  spec.seed_salt = seed;
  spec.sampling.enabled = true;
  spec.sampling.functional_instructions = 10'000'000;
  spec.sampling.jobs = 2;
  return spec;
}

/// Dotted paths the digest leaves out (see stats_digest).
const std::set<std::string>& excluded_paths() {
  static const std::set<std::string> paths = {
      "run.wall_seconds", "run.sim_cycles_per_second", "sampling.workers",
      "checker"};
  return paths;
}

void fnv(std::uint64_t* h, std::string_view bytes) {
  for (const char c : bytes) {
    *h ^= static_cast<unsigned char>(c);
    *h *= 0x100000001b3ULL;
  }
}

void digest_value(const rop::json::Value& v, const std::string& path,
                  std::uint64_t* h) {
  using Kind = rop::json::Value::Kind;
  char buf[64];
  switch (v.kind()) {
    case Kind::kNull:
      fnv(h, "n");
      break;
    case Kind::kBool:
      fnv(h, v.as_bool() ? "t" : "f");
      break;
    case Kind::kNumber:
      if (v.has_u64()) {
        std::snprintf(buf, sizeof buf, "u%" PRIu64, v.as_u64());
      } else if (v.has_i64()) {
        std::snprintf(buf, sizeof buf, "i%" PRId64, v.as_i64());
      } else {
        std::snprintf(buf, sizeof buf, "d%.17g", v.as_double());
      }
      fnv(h, buf);
      break;
    case Kind::kString:
      // Length prefix keeps adjacent strings unambiguous.
      std::snprintf(buf, sizeof buf, "s%zu:", v.as_string().size());
      fnv(h, buf);
      fnv(h, v.as_string());
      break;
    case Kind::kArray:
      fnv(h, "[");
      for (const rop::json::Value& e : v.as_array()) digest_value(e, path, h);
      fnv(h, "]");
      break;
    case Kind::kObject:
      fnv(h, "{");
      for (const auto& [key, member] : v.as_object()) {
        const std::string child = path.empty() ? key : path + "." + key;
        if (excluded_paths().count(child) != 0) continue;
        std::snprintf(buf, sizeof buf, "k%zu:", key.size());
        fnv(h, buf);
        fnv(h, key);
        digest_value(member, child, h);
      }
      fnv(h, "}");
      break;
  }
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

}  // namespace

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> all = {
      {"lbm-rop-exact", &lbm_rop_exact},
      {"wl1-darp-4ch-sharded", &wl1_darp_sharded},
      {"lbm-rop-3b-sampled", &lbm_rop_sampled},
  };
  return all;
}

const Workload* find_workload(std::string_view name) {
  for (const Workload& w : workloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

unsigned host_threads(const sim::ExperimentSpec& spec) {
  const bool planned = spec.sampling.enabled && spec.sampling.jobs > 0;
  return sim::experiment_worker_width(spec) + (planned ? 1 : 0);
}

double simulated_instructions(const sim::ExperimentSpec& spec) {
  return static_cast<double>(spec.instructions_per_core) *
         static_cast<double>(spec.benchmarks.size());
}

std::uint64_t stats_digest(std::string_view stats_json) {
  const std::optional<rop::json::Value> doc = rop::json::parse(stats_json);
  if (!doc) return 0;
  std::uint64_t h = 0xcbf29ce484222325ULL;
  digest_value(*doc, "", &h);
  return h;
}

std::uint64_t llc_counter(const rop::StatRegistry& stats,
                          std::string_view field) {
  const std::string suffix = "llc." + std::string(field);
  std::uint64_t n = 0;
  for (const auto& [name, counter] : stats.counters()) {
    const bool match =
        name.size() >= suffix.size() &&
        name.compare(name.size() - suffix.size(), suffix.size(), suffix) == 0 &&
        (name.size() == suffix.size() ||
         name[name.size() - suffix.size() - 1] == '.');
    if (match) n += counter.value();
  }
  return n;
}

bool cpi_stacks_sum(const sim::ExperimentResult& r) {
  for (const rop::cpu::CoreResult& c : r.run.cores) {
    if (c.cpi_stack_sum() != c.cpu_cycles) return false;
  }
  return true;
}

HostContext capture_host_context() {
  HostContext ctx;
  const long n = sysconf(_SC_NPROCESSORS_ONLN);
  ctx.nproc = n > 0 ? static_cast<unsigned>(n) : 1;
  double load[1] = {0.0};
  if (getloadavg(load, 1) == 1) ctx.load1_before = load[0];
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) {
        ctx.cpu_model = line.substr(colon + 1);
        ctx.cpu_model.erase(0, ctx.cpu_model.find_first_not_of(' '));
      }
      break;
    }
  }
  ctx.build_type = HOSTBENCH_BUILD_TYPE;
  return ctx;
}

void finish_host_context(HostContext* ctx) {
  double load[1] = {0.0};
  if (getloadavg(load, 1) == 1) ctx->load1_after = load[0];
}

std::string host_context_json(const HostContext& ctx,
                              std::string_view workload, unsigned threads,
                              std::uint64_t seed, int reps,
                              std::string_view extra) {
  std::ostringstream os;
  os << "{\"context\": {\"workload\": \"" << workload
     << "\", \"seed\": " << seed << ", \"nproc\": " << ctx.nproc
     << ", \"threads\": " << threads
     << ", \"load1_before\": " << ctx.load1_before
     << ", \"load1_after\": " << ctx.load1_after << ", \"cpu_model\": \""
     << json_escape(ctx.cpu_model) << "\", \"build_type\": \""
     << json_escape(ctx.build_type) << "\", \"repetitions\": " << reps
     << extra << "}}";
  return os.str();
}

bool reset_peak_rss() {
  std::ofstream clear("/proc/self/clear_refs");
  clear << "5";  // 5: reset the peak RSS (see proc(5))
  clear.flush();
  return static_cast<bool>(clear);
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double process_cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return secs(ru.ru_utime) + secs(ru.ru_stime);
}

namespace {

/// The reference kernel's memory: one private anonymous mapping.
struct Mapping {
  static constexpr std::size_t kBytes = std::size_t{8} << 20;
  void* base = mmap(nullptr, kBytes, PROT_READ | PROT_WRITE,
                    MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);

  Mapping() = default;
  Mapping(const Mapping&) = delete;
  Mapping& operator=(const Mapping&) = delete;
  ~Mapping() {
    if (base != MAP_FAILED) munmap(base, kBytes);
  }
};

}  // namespace

double reference_kernel_seconds() {
  // The map's nodes and buckets come from one mapping, pre-faulted
  // untimed, so the kernel leaves no heap behind.
  const Mapping mapping;
  if (mapping.base == MAP_FAILED) {
    std::perror("hostbench: mmap for the reference kernel");
    std::exit(1);
  }
  std::memset(mapping.base, 0, Mapping::kBytes);
  std::pmr::monotonic_buffer_resource arena(mapping.base, Mapping::kBytes,
                                            std::pmr::null_memory_resource());
  std::pmr::unordered_map<std::uint64_t, std::uint64_t> map(&arena);
  map.reserve(std::size_t{1} << 16);

  // Seeds read at run time, so the loops cannot be folded at compile time.
  volatile std::uint64_t seed = 1;
  std::uint64_t a = seed;
  std::uint64_t b = a + 1;
  std::uint64_t c = a + 2;
  std::uint64_t d = a + 3;
  std::uint64_t x = a + 6;
  std::uint64_t acc = 0;
  const std::int64_t t0 = now_ns();
  // Independent multiply chains and a data-dependent branch.
  for (int i = 0; i < 10'000'000; ++i) {
    a = a * 6364136223846793005ULL + 1;
    b = (b ^ (b >> 3)) + a;
    c = c * 2862933555777941757ULL + b;
    d += ((a >> 40) & 1) != 0 ? c : ~b;
  }
  // Random inserts and updates on a 64K-key hash map.
  for (int i = 0; i < 1'500'000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    const auto [it, inserted] = map.try_emplace(x & 0xffff, x);
    if (!inserted) {
      it->second += x;
      acc ^= it->second;
    }
  }
  const double s = seconds_since(t0);
  // Keep the results live so the loops are not optimized away.
  volatile std::uint64_t sink = a ^ b ^ c ^ d ^ acc;
  (void)sink;
  return s;
}

double calibrate_clock_read_ns() {
  // Spin ~200 ms so the core leaves any low-frequency state before the
  // reads are timed.
  const std::int64_t spin_start = now_ns();
  while (now_ns() - spin_start < 200'000'000) {
  }
  constexpr int kRounds = 101;
  constexpr int kReads = 1000;
  std::vector<double> per_read;
  per_read.reserve(kRounds);
  for (int r = 0; r < kRounds; ++r) {
    const std::int64_t t0 = now_ns();
    for (int i = 0; i < kReads; ++i) (void)now_ns();
    const std::int64_t t1 = now_ns();
    per_read.push_back(static_cast<double>(t1 - t0) / kReads);
  }
  return median(std::move(per_read));
}

double Span::seconds(double read_ns) const {
  const double corrected =
      static_cast<double>(total_ns) - static_cast<double>(count) * read_ns;
  return std::max(0.0, corrected) * 1e-9;
}

double Span::mean_ns(double read_ns) const {
  return count == 0 ? 0.0 : seconds(read_ns) * 1e9 / static_cast<double>(count);
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

}  // namespace hostbench
