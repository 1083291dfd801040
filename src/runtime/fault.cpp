#include "runtime/fault.hpp"

#include <cstdint>
#include <cstring>
#include <limits>

#include "common/check.hpp"
#include "obs/obs.hpp"

namespace semfpga::runtime {
namespace {

/// Default site of each kind (see the grammar in fault.hpp).
FaultSite default_site(FaultKind kind) noexcept {
  switch (kind) {
    case FaultKind::kCrash:
      return FaultSite::kIteration;
    case FaultKind::kStall:
      return FaultSite::kAllreduce;
    case FaultKind::kDelay:
    case FaultKind::kDrop:
    case FaultKind::kNan:
    case FaultKind::kBitFlip:
      return FaultSite::kHaloSend;
    case FaultKind::kTimeout:
    case FaultKind::kReject:
      return FaultSite::kRequest;
  }
  return FaultSite::kIteration;
}

bool parse_kind(const std::string& token, FaultKind& out) {
  if (token == "crash") {
    out = FaultKind::kCrash;
  } else if (token == "delay") {
    out = FaultKind::kDelay;
  } else if (token == "drop") {
    out = FaultKind::kDrop;
  } else if (token == "nan") {
    out = FaultKind::kNan;
  } else if (token == "bitflip") {
    out = FaultKind::kBitFlip;
  } else if (token == "stall") {
    out = FaultKind::kStall;
  } else if (token == "timeout") {
    out = FaultKind::kTimeout;
  } else if (token == "reject") {
    out = FaultKind::kReject;
  } else {
    return false;
  }
  return true;
}

int parse_int_field(const std::string& token, const std::string& spec) {
  SEMFPGA_CHECK(!token.empty(), "malformed fault spec '" + spec + "': empty number");
  std::size_t used = 0;
  int value = 0;
  try {
    value = std::stoi(token, &used);
  } catch (const std::exception&) {
    used = 0;
  }
  SEMFPGA_CHECK(used == token.size() && value >= 0,
                "malformed fault spec '" + spec + "': bad number '" + token + "'");
  return value;
}

double parse_seconds_field(const std::string& token, const std::string& spec) {
  std::size_t used = 0;
  double value = 0.0;
  try {
    value = std::stod(token, &used);
  } catch (const std::exception&) {
    used = 0;
  }
  SEMFPGA_CHECK(used == token.size() && value >= 0.0,
                "malformed fault spec '" + spec + "': bad seconds '" + token + "'");
  return value;
}

FaultSpec parse_one(const std::string& spec) {
  const std::size_t at = spec.find('@');
  SEMFPGA_CHECK(at != std::string::npos,
                "malformed fault spec '" + spec + "': expected kind@rR:iI[:sS]");
  FaultSpec out;
  SEMFPGA_CHECK(parse_kind(spec.substr(0, at), out.kind),
                "unknown fault kind in '" + spec +
                    "' (known: crash|delay|drop|nan|bitflip|stall|timeout|reject)");
  out.site = default_site(out.kind);

  bool have_rank = false;
  bool have_iteration = false;
  std::size_t pos = at + 1;
  while (pos < spec.size()) {
    std::size_t end = spec.find(':', pos);
    if (end == std::string::npos) {
      end = spec.size();
    }
    const std::string field = spec.substr(pos, end - pos);
    SEMFPGA_CHECK(field.size() >= 2,
                  "malformed fault spec '" + spec + "': field '" + field + "'");
    const std::string value = field.substr(1);
    switch (field[0]) {
      case 'r':
        out.rank = parse_int_field(value, spec);
        have_rank = true;
        break;
      case 'i':
        out.iteration = parse_int_field(value, spec);
        have_iteration = true;
        break;
      case 's':
        out.seconds = parse_seconds_field(value, spec);
        break;
      default:
        SEMFPGA_CHECK(false, "malformed fault spec '" + spec + "': field '" + field +
                                 "' (expected r/i/s prefix)");
    }
    pos = end + 1;
  }
  SEMFPGA_CHECK(have_rank && have_iteration,
                "malformed fault spec '" + spec + "': needs both rR and iI");
  return out;
}

}  // namespace

const char* fault_kind_name(FaultKind kind) noexcept {
  switch (kind) {
    case FaultKind::kCrash:
      return "crash";
    case FaultKind::kDelay:
      return "delay";
    case FaultKind::kDrop:
      return "drop";
    case FaultKind::kNan:
      return "nan";
    case FaultKind::kBitFlip:
      return "bitflip";
    case FaultKind::kStall:
      return "stall";
    case FaultKind::kTimeout:
      return "timeout";
    case FaultKind::kReject:
      return "reject";
  }
  return "?";
}

const char* fault_site_name(FaultSite site) noexcept {
  switch (site) {
    case FaultSite::kIteration:
      return "iteration";
    case FaultSite::kHaloSend:
      return "halo-send";
    case FaultSite::kAllreduce:
      return "allreduce";
    case FaultSite::kRequest:
      return "request";
  }
  return "?";
}

FaultPlan parse_fault_plan(const std::string& spec) {
  FaultPlan plan;
  std::size_t pos = 0;
  while (pos < spec.size()) {
    std::size_t end = spec.find(',', pos);
    if (end == std::string::npos) {
      end = spec.size();
    }
    const std::string one = spec.substr(pos, end - pos);
    if (!one.empty()) {
      plan.faults.push_back(parse_one(one));
    }
    pos = end + 1;
  }
  return plan;
}

InjectedRankFailure::InjectedRankFailure(int rank, int iteration)
    : std::runtime_error("injected rank failure: rank " + std::to_string(rank) +
                         " crashed after iteration " + std::to_string(iteration)),
      rank_(rank),
      iteration_(iteration) {}

std::string FaultEvent::to_string() const {
  std::string out = std::string("[") + fault_kind_name(kind) + " " +
                    fault_site_name(site) + " r" + std::to_string(rank) + " i" +
                    std::to_string(iteration) + "]";
  if (!detail.empty()) {
    out += " " + detail;
  }
  return out;
}

FaultInjector::FaultInjector(FaultPlan plan)
    : specs_(std::move(plan.faults)), fired_(specs_.size(), 0) {}

void FaultInjector::begin_attempt(int n_ranks, int start_iteration) {
  SEMFPGA_CHECK(n_ranks >= 1, "fault injector needs at least one rank");
  iterations_.assign(static_cast<std::size_t>(n_ranks), start_iteration);
}

bool FaultInjector::fire(std::size_t idx, FaultSite site, int rank, int iteration) {
  const FaultSpec& spec = specs_[idx];
  // The immutable coordinates gate first: fired_[idx] is only ever touched
  // once `rank` is the spec's owner, so every access to the byte stays on
  // the owning rank's thread (the no-atomics contract in fault.hpp).
  if (spec.rank != rank || spec.site != site || iteration < spec.iteration ||
      fired_[idx] != 0) {
    return false;
  }
  fired_[idx] = 1;
  return true;
}

void FaultInjector::record(const FaultSpec& spec, int iteration, std::string detail) {
  {
    const std::lock_guard<std::mutex> lock(events_mutex_);
    events_.push_back(FaultEvent{spec.kind, spec.site, spec.rank, iteration,
                                 std::move(detail)});
  }
  // Cold path (a fault fires at most once per spec): the registry lookup
  // mutex is fine here, and the instant marker puts the firing on the
  // recording rank's trace track.
  obs::registry().counter("faults.fired").add(1);
  obs::registry()
      .counter(std::string("faults.fired.") + fault_kind_name(spec.kind))
      .add(1);
  obs::instant("fault.fired");
}

void FaultInjector::on_iteration(int rank, int iteration) {
  const auto r = static_cast<std::size_t>(rank);
  if (r < iterations_.size()) {
    iterations_[r] = iteration;
  }
  for (std::size_t i = 0; i < specs_.size(); ++i) {
    if (fire(i, FaultSite::kIteration, rank, iteration)) {
      record(specs_[i], iteration, "rank body throws InjectedRankFailure");
      throw InjectedRankFailure(rank, iteration);
    }
  }
}

bool FaultInjector::on_send(int from, int to, std::span<double> payload) {
  const auto r = static_cast<std::size_t>(from);
  const int iteration = r < iterations_.size() ? iterations_[r] : 0;
  bool deliver = true;
  for (std::size_t i = 0; i < specs_.size(); ++i) {
    // delay@ specs belong to the latency seam (take_send_delay); skipping
    // them here keeps them unclaimed for the LatencyFabric decorator.
    if (specs_[i].kind == FaultKind::kDelay ||
        !fire(i, FaultSite::kHaloSend, from, iteration)) {
      continue;
    }
    const FaultSpec& spec = specs_[i];
    switch (spec.kind) {
      case FaultKind::kDrop:
        record(spec, iteration, "dropped send to r" + std::to_string(to));
        deliver = false;
        break;
      case FaultKind::kNan:
        if (!payload.empty()) {
          payload[0] = std::numeric_limits<double>::quiet_NaN();
        }
        record(spec, iteration,
               "corrupted payload to r" + std::to_string(to) + " with NaN");
        break;
      case FaultKind::kBitFlip:
        if (!payload.empty()) {
          // Flip a high exponent bit: a silent-data-corruption model that
          // turns a partial sum into an astronomically wrong — but finite —
          // value, exercising the divergence detector rather than the
          // NaN guard.
          const std::size_t slot =
              static_cast<std::size_t>(spec.iteration) % payload.size();
          std::uint64_t bits = 0;
          std::memcpy(&bits, &payload[slot], sizeof(bits));
          bits ^= std::uint64_t{1} << 62;
          std::memcpy(&payload[slot], &bits, sizeof(bits));
        }
        record(spec, iteration,
               "flipped exponent bit in payload to r" + std::to_string(to));
        break;
      case FaultKind::kCrash:
      case FaultKind::kDelay:
      case FaultKind::kStall:
      case FaultKind::kTimeout:
      case FaultKind::kReject:
        break;  // never handled here (delay lives on the latency seam)
    }
  }
  return deliver;
}

double FaultInjector::take_send_delay(int from, int to) {
  const auto r = static_cast<std::size_t>(from);
  const int iteration = r < iterations_.size() ? iterations_[r] : 0;
  double seconds = 0.0;
  for (std::size_t i = 0; i < specs_.size(); ++i) {
    if (specs_[i].kind != FaultKind::kDelay ||
        !fire(i, FaultSite::kHaloSend, from, iteration)) {
      continue;
    }
    const double s =
        specs_[i].seconds > 0.0 ? specs_[i].seconds : default_delay_seconds_;
    record(specs_[i], iteration,
           "delayed send to r" + std::to_string(to) + " by " + std::to_string(s) + "s");
    seconds += s;
  }
  return seconds;
}

double FaultInjector::on_collective(int rank) {
  const auto r = static_cast<std::size_t>(rank);
  const int iteration = r < iterations_.size() ? iterations_[r] : 0;
  double seconds = 0.0;
  for (std::size_t i = 0; i < specs_.size(); ++i) {
    if (!fire(i, FaultSite::kAllreduce, rank, iteration)) {
      continue;
    }
    const FaultSpec& spec = specs_[i];
    const double s = spec.seconds > 0.0 ? spec.seconds : default_stall_seconds_;
    record(spec, iteration, "stalled allreduce entry for up to " + std::to_string(s) + "s");
    seconds += s;
  }
  return seconds;
}

bool FaultInjector::fire_request(FaultKind kind, int request_id,
                                 const char* detail) {
  const FaultSpec* due = nullptr;
  {
    // Request hooks run on arbitrary client/worker threads, so the firing
    // byte is claimed under the event mutex instead of the SPMD hooks'
    // owner-thread discipline (the two spec families never share a byte:
    // fire() rejects kRequest sites and this loop accepts nothing else).
    const std::lock_guard<std::mutex> lock(events_mutex_);
    for (std::size_t i = 0; i < specs_.size(); ++i) {
      const FaultSpec& spec = specs_[i];
      if (spec.site != FaultSite::kRequest || spec.kind != kind ||
          spec.iteration != request_id || fired_[i] != 0) {
        continue;
      }
      fired_[i] = 1;
      due = &spec;
      break;
    }
  }
  if (due == nullptr) {
    return false;
  }
  record(*due, request_id, detail);
  return true;
}

bool FaultInjector::on_request_submit(int request_id) {
  return fire_request(FaultKind::kReject, request_id,
                      "rejected request at admission as if queue were full");
}

bool FaultInjector::on_request_dequeue(int request_id) {
  return fire_request(FaultKind::kTimeout, request_id,
                      "expired request at dequeue as if deadline had passed");
}

std::vector<FaultEvent> FaultInjector::events() const {
  const std::lock_guard<std::mutex> lock(events_mutex_);
  return events_;
}

}  // namespace semfpga::runtime
