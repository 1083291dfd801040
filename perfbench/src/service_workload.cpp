/// The service workload.
///
/// service_mix: a SolveServer on the fpga-sim backend, 2 workers x 1 solve
/// thread, max_batch 4, queue capacity 64, cache capacity 4, serving a
/// seeded Poisson/Helmholtz mix over degrees {3,5,7} at nel 4: six setup
/// keys against four cache entries, so both cache hits and misses run.
/// Every request has a 50-iteration budget.  Two phases:
///
///  * closed loop: 4 clients, each submitting its next request when the
///    previous one returns (req_per_s, solve_s).  Twice as many clients as
///    workers keep the server saturated; with one client per worker,
///    whether two outstanding requests share a batch is a wake-up race;
///  * open loop: one submitter thread sending at seeded exponential gaps
///    against absolute due times at a fixed rate below capacity; each
///    request is timed from its due time to the moment its response is
///    seen, so a stall counts against every request it delays
///    (req_p50_s, req_p99_s).  The generator's own lateness is recorded.
///
/// Forcing seeds come from a bounded pool, so the oracle table of
/// service::solve_standalone() answers is built once, untimed, and every
/// solved response is compared with it bitwise.

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstring>
#include <deque>
#include <future>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "backend/backend.hpp"
#include "bench.hpp"
#include "common/rng.hpp"
#include "sem/mesh.hpp"
#include "service/server.hpp"
#include "solver/system_setup.hpp"

namespace perfbench {
namespace {

using namespace semfpga;

constexpr const char* kBackend = "fpga-sim";
constexpr double kLambda = 1.0;
constexpr int kIterations = 50;
/// Distinct forcing seeds per setup key: 6 keys x 4 seeds = 24 oracle
/// solves.
constexpr int kSeedsPerKey = 4;
/// Open-loop arrival rate, requests/s: well below the closed-loop capacity
/// (135-270 req/s on a 4-core x86 VM, with the host's load), so the tail is
/// set by the request mix rather than by a queue near saturation.
constexpr double kRate = 60.0;
/// Open-loop requests at least, so p99 has at least 10 samples beyond it.
constexpr std::size_t kMinOpenRequests = 1000;
/// Open-loop response polling period.
constexpr auto kPollPeriod = std::chrono::microseconds(100);

struct ServiceSpec {
  std::vector<int> degrees;
  int nel;
};

ServiceSpec service_spec(bool tiny) { return tiny ? ServiceSpec{{2, 3}, 2} : ServiceSpec{{3, 5, 7}, 4}; }

service::ServerConfig server_config() {
  service::ServerConfig config;
  config.workers = 2;
  config.solve_threads = 1;
  config.max_batch = 4;
  config.queue_capacity = 64;
  config.cache_capacity = 4;
  config.backend = kBackend;
  return config;
}

/// One request per (degree, operator, pool seed).
std::vector<service::SolveRequest> request_pool(const ServiceSpec& spec, std::uint64_t seed) {
  SplitMix64 rng(seed);
  std::vector<service::SolveRequest> pool;
  for (const int degree : spec.degrees) {
    for (const auto kind : {solver::OperatorKind::kPoisson, solver::OperatorKind::kHelmholtz}) {
      for (int s = 0; s < kSeedsPerKey; ++s) {
        service::SolveRequest request;
        request.mesh.degree = degree;
        request.mesh.nelx = request.mesh.nely = request.mesh.nelz = spec.nel;
        request.kind = kind;
        request.lambda = kLambda;
        request.rhs_seed = rng.next_u64() | 1u;
        request.tolerance = 0.0;  // the full 50-iteration budget
        request.max_iterations = kIterations;
        request.return_solution = true;
        pool.push_back(request);
      }
    }
  }
  return pool;
}

/// Bitwise service == standalone: every payload field and the solution.
bool matches(const service::SolveResponse& got, const service::SolveResponse& want) {
  return got.outcome == service::Outcome::kSolved && got.iterations == want.iterations &&
         got.converged == want.converged && got.flops == want.flops &&
         std::bit_cast<std::uint64_t>(got.final_residual) ==
             std::bit_cast<std::uint64_t>(want.final_residual) &&
         got.solution.size() == want.solution.size() &&
         std::memcmp(got.solution.data(), want.solution.data(),
                     got.solution.size() * sizeof(double)) == 0;
}

/// One request's fate, checked against the oracle table.
struct Outcome {
  bool ok = false;
  std::string what;
};

Outcome judge(const service::SolveResponse& response, const service::SolveResponse& oracle) {
  if (response.outcome != service::Outcome::kSolved) {
    return {false, std::string("request ") + service::outcome_name(response.outcome) + ": " +
                       response.error};
  }
  if (!matches(response, oracle)) {
    return {false, "response " + std::to_string(response.id) +
                       " differs bitwise from solve_standalone()"};
  }
  return {true, ""};
}

/// Set-up of every key of the mix from nothing, as a cold cache pays it:
/// box_mesh + SystemSetup::build_owning + system + fpga-sim backend.
struct SetupSample {
  double total_s = 0.0, box_mesh_s = 0.0, build_s = 0.0, make_s = 0.0;
};

SetupSample time_key_setup(const ServiceSpec& spec) {
  SetupSample sample;
  const service::ServerConfig config = server_config();
  const double start = now_s();
  for (const int degree : spec.degrees) {
    for (const auto kind : {solver::OperatorKind::kPoisson, solver::OperatorKind::kHelmholtz}) {
      service::SolveRequest request;
      request.mesh.degree = degree;
      request.mesh.nelx = request.mesh.nely = request.mesh.nelz = spec.nel;
      request.kind = kind;
      request.lambda = kLambda;
      const double t0 = now_s();
      sem::Mesh mesh = sem::box_mesh(request.mesh);
      const double t1 = now_s();
      auto system = service::make_system(
          solver::SystemSetup::build_owning(
              std::move(mesh), kind == solver::OperatorKind::kHelmholtz ? kLambda : 0.0),
          request);
      system->set_threads(config.solve_threads);
      const double t2 = now_s();
      const auto be = backend::make(config.backend, *system, config.backend_options);
      const double t3 = now_s();
      sample.box_mesh_s += t1 - t0;
      sample.build_s += t2 - t1;
      sample.make_s += t3 - t2;
    }
  }
  sample.total_s = now_s() - start;
  return sample;
}

std::chrono::steady_clock::time_point to_time_point(double seconds) {
  return std::chrono::steady_clock::time_point(
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double>(seconds)));
}

/// Per-request measurements of the open loop.
struct OpenLoop {
  std::vector<double> latency_s;  ///< due time -> response seen
  std::vector<double> queue_s, solve_s, unattributed_s;
  std::vector<double> late_s;  ///< generator lateness per send
  std::vector<double> iterations;
};

}  // namespace

WorkloadShape service_mix_shape(bool tiny) {
  // Every key's setup products and solve vectors (15 doubles per DOF, as
  // for the solve workloads), summed over the six keys.
  const ServiceSpec spec = service_spec(tiny);
  double bytes = 0.0;
  for (const int degree : spec.degrees) {
    const double dofs = std::pow(spec.nel * (degree + 1), 3);
    bytes += 2.0 * dofs * 15.0 * 8.0;
  }
  return {"service_mix", server_config().workers * server_config().solve_threads, 1, bytes};
}

void run_service_mix(const Options& options, Report& report) {
  const ServiceSpec spec = service_spec(options.tiny);
  const service::ServerConfig config = server_config();

  std::vector<double> setup_total, setup_mesh, setup_build, setup_make;
  auto setup_batch = [&] {
    const double start = now_s();
    for (std::size_t done = 0; more_setup_reps(options, done, now_s() - start); ++done) {
      const SetupSample s = time_key_setup(spec);
      setup_total.push_back(s.total_s);
      setup_mesh.push_back(s.box_mesh_s);
      setup_build.push_back(s.build_s);
      setup_make.push_back(s.make_s);
    }
  };
  setup_batch();

  // The oracle table, built once and untimed.
  const std::vector<service::SolveRequest> pool = request_pool(spec, options.seed);
  std::vector<service::SolveResponse> oracle;
  for (const service::SolveRequest& request : pool) {
    oracle.push_back(service::solve_standalone(request, kBackend, config.backend_options,
                                               config.solve_threads));
  }

  service::SolveServer server(config);

  // Closed loop: 4 clients over one seeded request sequence.
  const double closed_s = options.seconds * 0.4;
  SplitMix64 pick(options.seed ^ 0x636c6f736564ULL);
  std::vector<std::size_t> sequence(static_cast<std::size_t>(closed_s * 1000.0) + 64);
  for (std::size_t& index : sequence) {
    index = static_cast<std::size_t>(pick.next_below(pool.size()));
  }
  std::atomic<std::size_t> next{0};
  std::atomic<bool> perturb_pending{options.perturb};
  constexpr int kClients = 4;
  std::vector<std::vector<double>> client_latency(kClients);
  std::vector<std::vector<double>> client_done_at(kClients);
  std::vector<std::vector<Outcome>> client_outcomes(kClients);
  const double closed_start = now_s();
  {
    std::vector<std::jthread> clients;
    for (int c = 0; c < kClients; ++c) {
      clients.emplace_back([&, c] {
        const auto ci = static_cast<std::size_t>(c);
        while (now_s() - closed_start < closed_s || client_latency[ci].empty()) {
          const std::size_t i = next.fetch_add(1);
          if (i >= sequence.size()) {
            break;
          }
          const std::size_t k = sequence[i];
          const double t0 = now_s();
          try {
            service::SolveResponse response = server.submit(pool[k]).get();
            const double done_at = now_s();
            client_latency[ci].push_back(done_at - t0);
            if (perturb_pending.exchange(false) && !response.solution.empty()) {
              response.solution[0] = std::bit_cast<double>(
                  std::bit_cast<std::uint64_t>(response.solution[0]) ^ 1u);
            }
            client_outcomes[ci].push_back(judge(response, oracle[k]));
            if (client_outcomes[ci].back().ok) {
              client_done_at[ci].push_back(done_at);
            }
          } catch (const std::exception& e) {
            client_outcomes[ci].push_back({false, std::string("submit threw: ") + e.what()});
          }
        }
      });
    }
  }
  const double closed_elapsed = now_s() - closed_start;
  std::vector<double> closed_latency;
  std::vector<double> closed_done_at;
  for (int c = 0; c < kClients; ++c) {
    const auto ci = static_cast<std::size_t>(c);
    closed_latency.insert(closed_latency.end(), client_latency[ci].begin(),
                          client_latency[ci].end());
    closed_done_at.insert(closed_done_at.end(), client_done_at[ci].begin(),
                          client_done_at[ci].end());
    for (const Outcome& o : client_outcomes[ci]) {
      report.check(o.ok, "service_mix closed loop: " + o.what);
    }
  }

  // Open loop: one submitter against absolute due times; this thread polls
  // the outstanding futures and timestamps each response as it appears.
  const std::size_t n_open =
      options.tiny ? 40
                   : std::max(kMinOpenRequests,
                              static_cast<std::size_t>(options.seconds * 0.6 * kRate));
  struct Sent {
    std::future<service::SolveResponse> response;
    double due = 0.0;
    std::size_t k = 0;
  };
  std::mutex handoff_mutex;
  std::deque<Sent> handoff;  // guarded by handoff_mutex
  bool submitter_done = false;  // guarded by handoff_mutex
  OpenLoop open;
  std::vector<Outcome> open_outcomes;
  {
    std::jthread submitter([&] {
      SplitMix64 gaps(options.seed ^ 0x6f70656eULL);
      SplitMix64 choose(options.seed ^ 0x63686f6fULL);
      double due = now_s() + 0.01;
      for (std::size_t i = 0; i < n_open; ++i) {
        due += -std::log(1.0 - gaps.next_double()) / kRate;
        const std::size_t k = static_cast<std::size_t>(choose.next_below(pool.size()));
        std::this_thread::sleep_until(to_time_point(due));
        open.late_s.push_back(now_s() - due);
        Sent sent;
        sent.due = due;
        sent.k = k;
        try {
          sent.response = server.submit(pool[k]);
        } catch (...) {
          // Refused at admission: the poller sees the exception as a failure.
          std::promise<service::SolveResponse> refused;
          refused.set_exception(std::current_exception());
          sent.response = refused.get_future();
        }
        const std::lock_guard<std::mutex> lock(handoff_mutex);
        handoff.push_back(std::move(sent));
      }
      const std::lock_guard<std::mutex> lock(handoff_mutex);
      submitter_done = true;
    });

    std::vector<Sent> outstanding;
    for (;;) {
      bool done = false;
      {
        const std::lock_guard<std::mutex> lock(handoff_mutex);
        while (!handoff.empty()) {
          outstanding.push_back(std::move(handoff.front()));
          handoff.pop_front();
        }
        done = submitter_done;
      }
      for (std::size_t i = 0; i < outstanding.size();) {
        Sent& sent = outstanding[i];
        if (sent.response.wait_for(std::chrono::seconds(0)) != std::future_status::ready) {
          ++i;
          continue;
        }
        const double seen = now_s();
        try {
          const service::SolveResponse response = sent.response.get();
          const double latency = seen - sent.due;
          open.latency_s.push_back(latency);
          open.queue_s.push_back(response.queue_seconds);
          open.solve_s.push_back(response.solve_seconds);
          open.unattributed_s.push_back(latency - response.queue_seconds -
                                        response.solve_seconds);
          open.iterations.push_back(response.iterations);
          open_outcomes.push_back(judge(response, oracle[sent.k]));
        } catch (const std::exception& e) {
          open_outcomes.push_back({false, std::string("submit threw: ") + e.what()});
        }
        outstanding[i] = std::move(outstanding.back());
        outstanding.pop_back();
      }
      if (done && outstanding.empty()) {
        break;
      }
      std::this_thread::sleep_for(kPollPeriod);
    }
  }
  for (const Outcome& o : open_outcomes) {
    report.check(o.ok, "service_mix open loop: " + o.what);
  }
  server.stop();
  const service::ServerStats stats = server.stats();
  setup_batch();

  if (!options.trace) {
    report.set("solve_s", median(closed_latency), closed_latency.size());
    report.set("setup_s", median(setup_total), setup_total.size());
    report.set("peak_rss_mb", peak_rss_mb(), 1);
    const double closed_end = closed_start + closed_elapsed;
    report.set("req_per_s", sliced_rate(closed_done_at, closed_start, closed_end),
               closed_done_at.size());
    report.note("req_p50_s", quantile(open.latency_s, 0.50), "s", open.latency_s.size());
    report.note("req_p99_s", quantile(open.latency_s, 0.99), "s", open.latency_s.size());
    return;
  }
  const std::size_t k = open.latency_s.size();
  report.set("sem.box_mesh_s", median(setup_mesh), setup_mesh.size());
  report.set("solver.setup_build_s", median(setup_build), setup_build.size());
  report.set("backend.make_s", median(setup_make), setup_make.size());
  report.set("solver.iterations", median(open.iterations), k);
  report.set("service.req_p50_s", quantile(open.latency_s, 0.50), k);
  report.set("service.req_p99_s", quantile(open.latency_s, 0.99), k);
  report.set("service.queue_p50_s", quantile(open.queue_s, 0.50), k);
  report.set("service.queue_p99_s", quantile(open.queue_s, 0.99), k);
  report.set("service.solve_p50_s", quantile(open.solve_s, 0.50), k);
  report.set("service.unattributed_p99_s", quantile(open.unattributed_s, 0.99), k);
  const std::int64_t lookups = server.cache().hits() + server.cache().misses();
  report.set("service.cache_hit_ratio",
             lookups > 0 ? static_cast<double>(server.cache().hits()) /
                               static_cast<double>(lookups)
                         : 0.0,
             static_cast<std::size_t>(lookups));
  report.set("service.cache_lookups", static_cast<double>(lookups), 1);
  report.set("service.batch_mean",
             stats.batches > 0 ? static_cast<double>(stats.solved) /
                                     static_cast<double>(stats.batches)
                               : 0.0,
             static_cast<std::size_t>(stats.batches));
  report.set("service.rejected", static_cast<double>(stats.rejected), 1);
  report.set("service.expired", static_cast<double>(stats.expired), 1);
  report.set("service.failed", static_cast<double>(stats.failed), 1);
  report.set("service.gen_late_p99_s", quantile(open.late_s, 0.99), open.late_s.size());
}

}  // namespace perfbench
