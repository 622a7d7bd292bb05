#include "common/fault.hpp"

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <thread>

#include "common/error.hpp"
#include "common/sync.hpp"

namespace exaclim {

// ------------------------------------------------------- metric bridge --

namespace {
std::atomic<FaultMetricSink> g_fault_sink{nullptr};
}  // namespace

void SetFaultMetricSink(FaultMetricSink sink) {
  g_fault_sink.store(sink, std::memory_order_release);
}

void FaultCounterBump(std::string_view name, std::int64_t delta) {
  if (FaultMetricSink sink = g_fault_sink.load(std::memory_order_acquire)) {
    sink(name, delta);
  }
}

// ------------------------------------------------------ site registry --

namespace {

struct SiteRegistry {
  Mutex mutex;
  // Entries ending in '.' are prefixes taking a nonnegative integer.
  std::vector<std::string> entries EXACLIM_GUARDED_BY(mutex) = {
      "comm.drop",        "comm.delay",      "comm.kill.",
      "fs.read",          "pipeline.produce", "checkpoint.write",
      "epoch.step",       "elastic.kill.",   "elastic.exchange.kill.",
      "step.backward.delay",
  };
};

SiteRegistry& GlobalSiteRegistry() {
  static SiteRegistry registry;
  return registry;
}

bool AllDigits(std::string_view s) {
  if (s.empty()) return false;
  for (const char c : s) {
    if (c < '0' || c > '9') return false;
  }
  return true;
}

}  // namespace

void RegisterFaultSite(std::string_view site_or_prefix) {
  SiteRegistry& registry = GlobalSiteRegistry();
  MutexLock lock(registry.mutex);
  for (const auto& e : registry.entries) {
    if (e == site_or_prefix) return;
  }
  registry.entries.emplace_back(site_or_prefix);
}

bool IsKnownFaultSite(std::string_view site) {
  SiteRegistry& registry = GlobalSiteRegistry();
  MutexLock lock(registry.mutex);
  for (const auto& e : registry.entries) {
    if (e.back() == '.') {
      if (site.size() > e.size() && site.substr(0, e.size()) == e &&
          AllDigits(site.substr(e.size()))) {
        return true;
      }
    } else if (site == e) {
      return true;
    }
  }
  return false;
}

std::vector<std::string> KnownFaultSites() {
  SiteRegistry& registry = GlobalSiteRegistry();
  MutexLock lock(registry.mutex);
  return registry.entries;
}

// ------------------------------------------------------- FaultInjector --

FaultInjector& FaultInjector::Global() {
  static FaultInjector injector;
  return injector;
}

void FaultInjector::Arm(const FaultSpec& spec) {
  EXACLIM_CHECK(!spec.site.empty(), "fault spec needs a site name");
  EXACLIM_CHECK(spec.probability >= 0.0 && spec.probability <= 1.0,
                "fault probability must be in [0, 1], got "
                    << spec.probability);
  MutexLock lock(mutex_);
  sites_.erase(spec.site);
  sites_.emplace(spec.site, Site(spec));
  armed_count_.store(static_cast<int>(sites_.size()),
                     std::memory_order_relaxed);
}

int FaultInjector::ArmFromString(std::string_view specs) {
  int armed = 0;
  std::size_t pos = 0;
  while (pos <= specs.size()) {
    const std::size_t comma = specs.find(',', pos);
    const std::string_view one = specs.substr(
        pos, comma == std::string_view::npos ? std::string_view::npos
                                             : comma - pos);
    pos = comma == std::string_view::npos ? specs.size() + 1 : comma + 1;
    if (one.empty()) continue;

    // site:prob[:seed[:max[:delay_s[:skip]]]]
    std::vector<std::string> fields;
    std::size_t f = 0;
    while (f <= one.size()) {
      const std::size_t colon = one.find(':', f);
      if (colon == std::string_view::npos) {
        fields.emplace_back(one.substr(f));
        break;
      }
      fields.emplace_back(one.substr(f, colon - f));
      f = colon + 1;
    }
    EXACLIM_CHECK(fields.size() >= 2 && fields.size() <= 6,
                  "EXACLIM_FAULTS entry '"
                      << std::string(one)
                      << "' wants site:prob[:seed[:max[:delay_s[:skip]]]]");
    FaultSpec spec;
    spec.site = fields[0];
    try {
      spec.probability = std::stod(fields[1]);
      if (fields.size() > 2 && !fields[2].empty()) {
        spec.seed = std::stoull(fields[2]);
      }
      if (fields.size() > 3 && !fields[3].empty()) {
        spec.max_triggers = std::stoi(fields[3]);
      }
      if (fields.size() > 4 && !fields[4].empty()) {
        spec.delay_seconds = std::stod(fields[4]);
      }
      if (fields.size() > 5 && !fields[5].empty()) {
        spec.skip_first = std::stoll(fields[5]);
      }
    } catch (const std::exception&) {
      throw Error("EXACLIM_FAULTS entry '" + std::string(one) +
                  "' has a non-numeric field");
    }
    // A NaN would reach the deadline and sleep arithmetic of the delay
    // sites, and a negative delay would silently mean none.
    EXACLIM_CHECK(std::isfinite(spec.delay_seconds) &&
                      spec.delay_seconds >= 0.0,
                  "EXACLIM_FAULTS entry '"
                      << std::string(one) << "' has delay_s "
                      << spec.delay_seconds
                      << "; it must be a finite number of seconds >= 0");
    if (!IsKnownFaultSite(spec.site)) {
      std::string valid;
      for (const auto& s : KnownFaultSites()) {
        if (!valid.empty()) valid += ", ";
        valid += s;
        if (s.back() == '.') valid += "<rank>";
      }
      throw Error("EXACLIM_FAULTS names unknown site '" + spec.site +
                  "' — nothing consults it, so it would never fire. "
                  "Valid sites: " + valid);
    }
    Arm(spec);
    ++armed;
  }
  return armed;
}

int FaultInjector::ArmFromEnv() {
  const char* env = std::getenv("EXACLIM_FAULTS");
  if (env == nullptr || *env == '\0') return 0;
  return ArmFromString(env);
}

void FaultInjector::Disarm(std::string_view site) {
  MutexLock lock(mutex_);
  const auto it = sites_.find(site);
  if (it != sites_.end()) sites_.erase(it);
  armed_count_.store(static_cast<int>(sites_.size()),
                     std::memory_order_relaxed);
}

void FaultInjector::Reset() {
  MutexLock lock(mutex_);
  sites_.clear();
  total_fired_ = 0;
  armed_count_.store(0, std::memory_order_relaxed);
}

bool FaultInjector::ShouldInject(std::string_view site) {
  if (armed_count_.load(std::memory_order_relaxed) == 0) return false;
  bool fired = false;
  {
    MutexLock lock(mutex_);
    const auto it = sites_.find(site);
    if (it == sites_.end()) return false;
    Site& s = it->second;
    ++s.evaluated;
    if (s.evaluated <= s.spec.skip_first) return false;
    if (s.spec.max_triggers >= 0 && s.fired >= s.spec.max_triggers) {
      return false;
    }
    if (s.rng.UniformDouble() >= s.spec.probability) return false;
    ++s.fired;
    ++total_fired_;
    fired = true;
  }
  // Bump outside the injector mutex: the sink takes registry locks.
  if (fired) FaultCounterBump("fault.injected." + std::string(site));
  return fired;
}

double FaultInjector::DelaySeconds(std::string_view site) const {
  if (armed_count_.load(std::memory_order_relaxed) == 0) return 0.0;
  MutexLock lock(mutex_);
  const auto it = sites_.find(site);
  return it == sites_.end() ? 0.0 : it->second.spec.delay_seconds;
}

bool FaultInjector::IsArmed(std::string_view site) const {
  if (armed_count_.load(std::memory_order_relaxed) == 0) return false;
  MutexLock lock(mutex_);
  return sites_.find(site) != sites_.end();
}

std::int64_t FaultInjector::InjectionCount(std::string_view site) const {
  MutexLock lock(mutex_);
  const auto it = sites_.find(site);
  return it == sites_.end() ? 0 : it->second.fired;
}

std::int64_t FaultInjector::TotalInjections() const {
  MutexLock lock(mutex_);
  return total_fired_;
}

int FaultInjector::ArmedSiteCount() const {
  return armed_count_.load(std::memory_order_relaxed);
}

// --------------------------------------------------------- RetryPolicy --

double RetryPolicy::BackoffSeconds(int attempt) const {
  EXACLIM_CHECK(attempt >= 0, "retry attempt index must be >= 0");
  double backoff =
      initial_backoff_s * std::pow(multiplier, static_cast<double>(attempt));
  backoff = std::min(backoff, max_backoff_s);
  if (jitter > 0.0) {
    // One deterministic draw per attempt index: same policy, same
    // schedule, every run.
    Rng rng = Rng(seed).Fork(static_cast<std::uint64_t>(attempt));
    backoff *= 1.0 + jitter * (2.0 * rng.UniformDouble() - 1.0);
  }
  return backoff;
}

std::vector<double> RetryPolicy::Schedule() const {
  std::vector<double> schedule;
  for (int a = 0; a + 1 < max_attempts; ++a) {
    schedule.push_back(BackoffSeconds(a));
  }
  return schedule;
}

RetryOutcome RunWithRetry(const RetryPolicy& policy, std::string_view what,
                          const std::function<bool()>& op) {
  EXACLIM_CHECK(policy.max_attempts >= 1,
                "retry policy for " << what << " needs >= 1 attempt");
  using Clock = std::chrono::steady_clock;
  const auto start = Clock::now();
  RetryOutcome out;
  for (int attempt = 0; attempt < policy.max_attempts; ++attempt) {
    out.attempts = attempt + 1;
    if (op()) {
      out.success = true;
      return out;
    }
    if (attempt + 1 >= policy.max_attempts) break;
    const double elapsed =
        std::chrono::duration<double>(Clock::now() - start).count();
    if (elapsed >= policy.deadline_s) break;
    double sleep_s = policy.BackoffSeconds(attempt);
    sleep_s = std::min(sleep_s, policy.deadline_s - elapsed);
    FaultCounterBump("fault.retry.attempts");
    if (sleep_s > 0.0) {
      std::this_thread::sleep_for(std::chrono::duration<double>(sleep_s));
      out.slept_seconds += sleep_s;
    }
  }
  FaultCounterBump("fault.retry.giveups");
  return out;
}

}  // namespace exaclim
