/// The latency seam: LatencyFabric must forward payloads and reduction
/// results bitwise while only adding wall-clock delay, FaultDelayPolicy
/// must claim each `delay@` spec exactly once through the injector, and
/// ModeledNetworkPolicy must charge exactly the NetworkSpec terms the
/// cluster projection model charges analytically.

#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "arch/network.hpp"
#include "runtime/fabric.hpp"
#include "runtime/fault.hpp"
#include "runtime/latency_fabric.hpp"
#include "runtime/spmd.hpp"

namespace semfpga::runtime {
namespace {

/// One exchange + both allreduce flavours over `fab`, returning everything
/// a decorator could corrupt: the received payload and the reduction
/// results per rank.
struct ExchangeResult {
  std::vector<double> received;
  double contiguous_sum = 0.0;
  double indexed_sum = 0.0;
};

ExchangeResult run_exchange(Fabric& fab) {
  ExchangeResult results[2];
  spmd_run(fab, 1, [&](const RankEnv& env) {
    ExchangeResult& r = results[env.rank];
    // Values with non-trivial mantissas so bit-level corruption would show.
    const std::vector<double> payload = {1.0 / 3.0, 2.0 / 7.0, 1e-300, -0.0};
    if (env.rank == 0) {
      env.fabric->send(0, 1, std::span<const double>(payload.data(), payload.size()));
    } else {
      r.received.assign(payload.size(), 0.0);
      env.fabric->recv(0, 1, std::span<double>(r.received.data(), r.received.size()));
    }
    // The ranks tile the four slots disjointly — rank r owns {2r, 2r+1} —
    // as the fabric contract requires: a shared slot would make each sum
    // whichever rank wrote it last.
    const std::vector<double> contribution = {0.1 * (env.rank + 1),
                                              0.2 * (env.rank + 1)};
    const auto first_slot = static_cast<std::size_t>(2 * env.rank);
    r.contiguous_sum = env.fabric->allreduce_ordered(
        env.rank, first_slot,
        std::span<const double>(contribution.data(), contribution.size()));
    const std::vector<std::int64_t> slots = {2 * env.rank + 1, 2 * env.rank};
    r.indexed_sum = env.fabric->allreduce_ordered(
        env.rank, std::span<const std::int64_t>(slots.data(), slots.size()),
        std::span<const double>(contribution.data(), contribution.size()));
  });
  // Rank 1 holds the received payload; reduction results are identical on
  // both ranks by the fabric contract (checked here once).
  EXPECT_EQ(results[0].contiguous_sum, results[1].contiguous_sum);
  EXPECT_EQ(results[0].indexed_sum, results[1].indexed_sum);
  ExchangeResult out = results[1];
  return out;
}

TEST(LatencyFabric, ForwardsPayloadsAndReductionsBitwise) {
  InProcessFabric bare(/*n_ranks=*/2, /*reduce_slots=*/4);
  const ExchangeResult want = run_exchange(bare);

  InProcessFabric inner(/*n_ranks=*/2, /*reduce_slots=*/4);
  LatencyFabric latency(inner);
  // A real (tiny) modeled network: the sleeps must not perturb numerics.
  latency.add_policy(std::make_unique<ModeledNetworkPolicy>(
      arch::NetworkSpec{/*latency_us=*/0.01, /*bandwidth_gbs=*/100.0}, 2));
  const ExchangeResult got = run_exchange(latency);

  ASSERT_EQ(got.received.size(), want.received.size());
  for (std::size_t i = 0; i < want.received.size(); ++i) {
    EXPECT_EQ(got.received[i], want.received[i]) << "payload word " << i;
  }
  EXPECT_EQ(got.contiguous_sum, want.contiguous_sum);
  EXPECT_EQ(got.indexed_sum, want.indexed_sum);
}

TEST(FaultDelayPolicy, ClaimsEachDelaySpecExactlyOnce) {
  FaultInjector injector(parse_fault_plan("delay@r0:i0:s0.25"));
  injector.begin_attempt(/*n_ranks=*/2, /*start_iteration=*/0);
  FaultDelayPolicy policy(injector);

  // The spec's seconds come back once, with the firing recorded...
  EXPECT_DOUBLE_EQ(policy.send_delay_seconds(0, 1, 64), 0.25);
  const std::vector<FaultEvent> events = injector.events();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].kind, FaultKind::kDelay);
  EXPECT_EQ(events[0].rank, 0);

  // ...and never again — not on the same edge, not from other ranks, not
  // on collectives (delay@ is a point-to-point link fault).
  EXPECT_DOUBLE_EQ(policy.send_delay_seconds(0, 1, 64), 0.0);
  EXPECT_DOUBLE_EQ(policy.send_delay_seconds(1, 0, 64), 0.0);
  EXPECT_DOUBLE_EQ(policy.collective_delay_seconds(0), 0.0);
  EXPECT_EQ(injector.events().size(), 1u);
}

TEST(ModeledNetworkPolicy, ChargesTheNetworkSpecTerms) {
  // 10 us latency, 1 GB/s: an 8000-byte message costs 10e-6 + 8e-6 s.
  ModeledNetworkPolicy policy(arch::NetworkSpec{10.0, 1.0}, /*n_ranks=*/4);
  EXPECT_DOUBLE_EQ(policy.send_delay_seconds(0, 1, 8000), 1.8e-5);
  // Each collective entry pays the fan-in/fan-out tree: 2 * log2(4) hops.
  EXPECT_DOUBLE_EQ(policy.collective_delay_seconds(0), 2.0 * 2.0 * 10.0e-6);

  // A single rank has no tree to climb.
  ModeledNetworkPolicy solo(arch::NetworkSpec{10.0, 1.0}, /*n_ranks=*/1);
  EXPECT_DOUBLE_EQ(solo.collective_delay_seconds(0), 0.0);
}

}  // namespace
}  // namespace semfpga::runtime
