#include "fault/fault.hpp"

#include "linalg/complex.hpp"
#include "support/env.hpp"
#include "support/mutex.hpp"

namespace noisim::fault {

namespace {

enum class Kind { MemoryOut, Timeout, Fault };

struct SiteSpec {
  std::string_view name;
  Kind kind;
};

// The full site table. Adding a site here is all it takes to document it in
// known_sites() and make arm()/NOISIM_FAULTS accept it.
constexpr SiteSpec kSites[] = {
    {"arena-alloc", Kind::MemoryOut},
    {"aligned-alloc", Kind::MemoryOut},
    {"plan-mo", Kind::MemoryOut},
    {"plan-to", Kind::Timeout},
    {"exec-step-mo", Kind::MemoryOut},
    {"exec-step-to", Kind::Timeout},
    {"sweep-worker", Kind::Fault},
    {"traj-chunk", Kind::Fault},
    {"sim-phase", Kind::Fault},
    {"run-density", Kind::MemoryOut},
    {"run-tdd", Kind::MemoryOut},
    {"run-tn-approx", Kind::MemoryOut},
    {"run-tn-trajectories", Kind::MemoryOut},
    {"run-sv-trajectories", Kind::MemoryOut},
    {"run-mps-trajectories", Kind::MemoryOut},
};
constexpr std::size_t kNumSites = sizeof(kSites) / sizeof(kSites[0]);

struct SiteState {
  bool armed = false;
  bool has_fired = false;
  std::uint64_t nth = 0;    // fire on this hit (1-based)
  std::uint64_t hits = 0;   // pokes observed since last arm
};

// All mutable state lives behind one mutex; poke()'s fast path never takes
// it. The pending env-parse error is delivered from the first poke so a
// typo'd NOISIM_FAULTS fails the run loudly instead of injecting nothing.
struct Registry {
  support::Mutex mutex;
  SiteState sites[kNumSites] GUARDED_BY(mutex);
  std::string env_error GUARDED_BY(mutex);  // empty = none pending
};

Registry& registry() {
  static Registry r;
  return r;
}

int site_index(std::string_view site) {
  for (std::size_t i = 0; i < kNumSites; ++i)
    if (kSites[i].name == site) return static_cast<int>(i);
  return -1;
}

void refresh_enabled_locked(const Registry& r) REQUIRES(r.mutex) {
  bool any = !r.env_error.empty();
  for (const SiteState& s : r.sites) any = any || s.armed;
  detail::g_enabled.store(any, std::memory_order_relaxed);
}

[[noreturn]] void throw_for(std::size_t idx) {
  const std::string msg =
      "injected fault at site '" + std::string(kSites[idx].name) + "'";
  switch (kSites[idx].kind) {
    case Kind::MemoryOut:
      throw MemoryOutError(msg);
    case Kind::Timeout:
      throw TimeoutError(msg);
    case Kind::Fault:
      break;
  }
  throw FaultError(msg);
}

void parse_env_locked(Registry& r, const char* env) REQUIRES(r.mutex) {
  // Grammar: <site>:<nth>[,<site>:<nth>...]  e.g. "exec-step-mo:2,plan-to:1"
  std::string_view rest(env);
  while (!rest.empty()) {
    const std::size_t comma = rest.find(',');
    const std::string_view entry =
        comma == std::string_view::npos ? rest : rest.substr(0, comma);
    rest = comma == std::string_view::npos ? std::string_view{} : rest.substr(comma + 1);

    const std::size_t colon = entry.find(':');
    if (colon == std::string_view::npos || colon == 0 || colon + 1 >= entry.size())
      throw LinalgError("NOISIM_FAULTS: expected <site>:<nth>[,...], got entry \"" +
                        std::string(entry) + "\"");
    const std::string_view site = entry.substr(0, colon);
    const std::string nth_str(entry.substr(colon + 1));
    const int idx = site_index(site);
    if (idx < 0)
      throw LinalgError("NOISIM_FAULTS: unknown site \"" + std::string(site) + "\"");
    // Shared strict grammar (support/env.hpp); the message stays byte-stable.
    const std::optional<long> nth = support::parse_positive_int(nth_str.c_str());
    if (!nth)
      throw LinalgError("NOISIM_FAULTS: nth must be a positive integer, got \"" +
                        nth_str + "\" for site \"" + std::string(site) + "\"");
    SiteState& s = r.sites[idx];
    s.armed = true;
    s.has_fired = false;
    s.nth = static_cast<std::uint64_t>(*nth);
    s.hits = 0;
  }
}

// Arm from the environment once at load time. Static-init order relative to
// other TUs does not matter: until this runs, g_enabled is false and pokes
// are no-ops, which only delays injection -- never corrupts it.
struct EnvInit {
  EnvInit() {
    try {
      arm_from_env();
    } catch (const LinalgError& e) {
      Registry& r = registry();
      const support::MutexLock lock(r.mutex);
      r.env_error = e.what();
      refresh_enabled_locked(r);
    }
  }
};
const EnvInit g_env_init;

}  // namespace

namespace detail {

std::atomic<bool> g_enabled{false};

void poke_slow(std::string_view site) {
  Registry& r = registry();
  std::string pending;
  {
    const support::MutexLock lock(r.mutex);
    if (!r.env_error.empty()) {
      pending = r.env_error;
    } else {
      const int idx = site_index(site);
      if (idx < 0) return;  // unknown site names poke as no-ops
      SiteState& s = r.sites[idx];
      if (!s.armed) return;
      ++s.hits;
      if (!s.has_fired && s.hits == s.nth) {
        s.has_fired = true;
        refresh_enabled_locked(r);  // keep enabled if other sites still armed
        // fall through to throw outside the registry bookkeeping
      } else {
        return;
      }
      throw_for(static_cast<std::size_t>(idx));
    }
  }
  throw LinalgError(pending);
}

}  // namespace detail

void arm(std::string_view site, std::uint64_t nth) {
  const int idx = site_index(site);
  if (idx < 0) {
    std::string all;
    for (const SiteSpec& s : kSites) {
      if (!all.empty()) all += ", ";
      all += s.name;
    }
    throw LinalgError("fault::arm: unknown site \"" + std::string(site) +
                      "\" (known: " + all + ")");
  }
  la::detail::require(nth > 0, "fault::arm: nth must be >= 1");
  Registry& r = registry();
  const support::MutexLock lock(r.mutex);
  SiteState& s = r.sites[static_cast<std::size_t>(idx)];
  s.armed = true;
  s.has_fired = false;
  s.nth = nth;
  s.hits = 0;
  refresh_enabled_locked(r);
}

void disarm_all() {
  Registry& r = registry();
  const support::MutexLock lock(r.mutex);
  for (SiteState& s : r.sites) s = SiteState{};
  r.env_error.clear();
  refresh_enabled_locked(r);
}

void arm_from_env() {
  Registry& r = registry();
  const support::MutexLock lock(r.mutex);
  r.env_error.clear();
  if (const char* env = support::env_get("NOISIM_FAULTS")) parse_env_locked(r, env);
  refresh_enabled_locked(r);
}

std::uint64_t hits(std::string_view site) {
  const int idx = site_index(site);
  if (idx < 0) return 0;
  Registry& r = registry();
  const support::MutexLock lock(r.mutex);
  return r.sites[static_cast<std::size_t>(idx)].hits;
}

bool fired(std::string_view site) {
  const int idx = site_index(site);
  if (idx < 0) return false;
  Registry& r = registry();
  const support::MutexLock lock(r.mutex);
  return r.sites[static_cast<std::size_t>(idx)].has_fired;
}

std::vector<std::string_view> known_sites() {
  std::vector<std::string_view> out;
  out.reserve(kNumSites);
  for (const SiteSpec& s : kSites) out.push_back(s.name);
  return out;
}

}  // namespace noisim::fault
