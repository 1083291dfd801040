/// Contract tests of the in-process Fabric: SPSC edge delivery, barrier
/// ordering, the determinism of the ordered allreduce, and the SPMD
/// launcher's team accounting and error propagation.

#include <atomic>
#include <cstdint>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/parallel.hpp"
#include "runtime/fabric.hpp"
#include "runtime/spmd.hpp"

namespace semfpga::runtime {
namespace {

TEST(Fabric, PointToPointDeliversInProgramOrder) {
  InProcessFabric fabric(2, 1);
  std::vector<double> got(3, 0.0);
  spmd_run(fabric, 1, [&](const RankEnv& env) {
    if (env.rank == 0) {
      for (double v : {1.0, 2.0, 3.0}) {
        const std::vector<double> msg = {v};
        env.fabric->send(0, 1, msg);
      }
    } else {
      for (std::size_t i = 0; i < got.size(); ++i) {
        std::vector<double> msg(1);
        env.fabric->recv(0, 1, msg);
        got[i] = msg[0];
      }
    }
  });
  EXPECT_EQ(got, (std::vector<double>{1.0, 2.0, 3.0}));
}

TEST(Fabric, NeighbourExchangePatternDoesNotDeadlock) {
  // The halo pattern: every rank posts all sends before any receive.
  const int n_ranks = 4;
  InProcessFabric fabric(n_ranks, 1);
  std::vector<double> sums(n_ranks, 0.0);
  spmd_run(fabric, 1, [&](const RankEnv& env) {
    const std::vector<double> mine = {static_cast<double>(env.rank + 1)};
    if (env.rank > 0) {
      env.fabric->send(env.rank, env.rank - 1, mine);
    }
    if (env.rank < env.n_ranks - 1) {
      env.fabric->send(env.rank, env.rank + 1, mine);
    }
    double acc = 0.0;
    std::vector<double> msg(1);
    if (env.rank > 0) {
      env.fabric->recv(env.rank - 1, env.rank, msg);
      acc += msg[0];
    }
    if (env.rank < env.n_ranks - 1) {
      env.fabric->recv(env.rank + 1, env.rank, msg);
      acc += msg[0];
    }
    sums[static_cast<std::size_t>(env.rank)] = acc;
  });
  EXPECT_EQ(sums, (std::vector<double>{2.0, 4.0, 6.0, 3.0}));
}

TEST(Fabric, BarrierSeparatesPhases) {
  const int n_ranks = 3;
  InProcessFabric fabric(n_ranks, 1);
  std::atomic<int> phase1{0};
  std::vector<int> seen(n_ranks, -1);
  spmd_run(fabric, 1, [&](const RankEnv& env) {
    phase1.fetch_add(1);
    env.fabric->barrier(env.rank);
    // After the barrier every rank must observe all phase-1 arrivals.
    seen[static_cast<std::size_t>(env.rank)] = phase1.load();
  });
  for (const int s : seen) {
    EXPECT_EQ(s, n_ranks);
  }
}

TEST(Fabric, OrderedAllreduceMatchesTreeFoldOnEveryRank) {
  // 7 slots tiled 3 + 2 + 2 over 3 ranks.
  const std::vector<double> slots = {0.125, -3.5, 2.25, 1e-3, 7.0, -0.75, 42.0};
  InProcessFabric fabric(3, slots.size());
  std::vector<double> results(3, 0.0);
  spmd_run(fabric, 1, [&](const RankEnv& env) {
    const std::size_t begin = env.rank == 0 ? 0 : (env.rank == 1 ? 3 : 5);
    const std::size_t len = env.rank == 0 ? 3 : 2;
    const std::vector<double> mine(slots.begin() + static_cast<std::ptrdiff_t>(begin),
                                   slots.begin() + static_cast<std::ptrdiff_t>(begin + len));
    // Two rounds to confirm the slot table is reusable.
    double r = 0.0;
    for (int round = 0; round < 2; ++round) {
      r = env.fabric->allreduce_ordered(env.rank, begin, mine);
    }
    results[static_cast<std::size_t>(env.rank)] = r;
  });
  std::vector<double> copy = slots;
  const double want = tree_fold(copy);
  for (const double r : results) {
    EXPECT_EQ(r, want);  // bitwise: same canonical fold on every rank
  }
}

TEST(Fabric, OverlappingAllreduceSlotClaimsThrow) {
  // Slot 1 is claimed by both ranks, through each overload: the collective
  // must end in the typed error on every attempt, never return whichever
  // value was written last.
  for (const bool indexed : {false, true}) {
    InProcessFabric fabric(2, 3);
    try {
      spmd_run(fabric, 1, [&](const RankEnv& env) {
        const std::vector<double> mine = {1.0, 2.0};
        const std::size_t begin = env.rank == 0 ? 0 : 1;
        if (indexed) {
          const std::vector<std::int64_t> slots = {static_cast<std::int64_t>(begin),
                                                   static_cast<std::int64_t>(begin + 1)};
          (void)env.fabric->allreduce_ordered(env.rank, slots, mine);
        } else {
          (void)env.fabric->allreduce_ordered(env.rank, begin, mine);
        }
      });
      FAIL() << "overlapping claims returned a result (indexed=" << indexed << ")";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("allreduce slot 1 claimed by ranks"),
                std::string::npos)
          << e.what();
    }
    EXPECT_TRUE(fabric.timeout_events().empty()) << "peers must be poisoned, not time out";
  }
}

TEST(Spmd, TeamThreadsSplitsTheBudget) {
  EXPECT_EQ(team_threads(8, 2), 4);
  EXPECT_EQ(team_threads(8, 3), 2);
  EXPECT_EQ(team_threads(1, 4), 1);  // never below one thread per rank
  EXPECT_EQ(team_threads(5, 2), 2);
}

TEST(Spmd, RankExceptionsPropagateToTheCaller) {
  InProcessFabric fabric(2, 1);
  EXPECT_THROW(spmd_run(fabric, 1,
                        [&](const RankEnv& env) {
                          if (env.rank == 1) {
                            throw std::runtime_error("rank 1 failed");
                          }
                        }),
               std::runtime_error);
}

TEST(Spmd, FailingRankPoisonsPeersBlockedInCollectives) {
  // Rank 1 dies before its side of the exchange; rank 0 is already blocked
  // in recv.  The launcher must poison the fabric, wake rank 0, and rethrow
  // the *original* error — not FabricPoisonedError, and never deadlock.
  InProcessFabric fabric(2, 1);
  try {
    spmd_run(fabric, 1, [&](const RankEnv& env) {
      if (env.rank == 0) {
        std::vector<double> msg(1);
        env.fabric->recv(1, 0, msg);  // never satisfied
      } else {
        throw std::invalid_argument("rank 1 died during setup");
      }
    });
    FAIL() << "expected the rank error to propagate";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(), "rank 1 died during setup");
  }
}

TEST(Spmd, FailingRankWakesPeersBlockedInABarrier) {
  InProcessFabric fabric(3, 1);
  EXPECT_THROW(spmd_run(fabric, 1,
                        [&](const RankEnv& env) {
                          if (env.rank == 2) {
                            throw std::runtime_error("late rank failed");
                          }
                          env.fabric->barrier(env.rank);  // 2 never arrives
                        }),
               std::runtime_error);
}

TEST(Spmd, SingleRankRunsOnTheCallingThread) {
  InProcessFabric fabric(1, 4);
  int calls = 0;
  spmd_run(fabric, 3, [&](const RankEnv& env) {
    EXPECT_EQ(env.rank, 0);
    EXPECT_EQ(env.n_ranks, 1);
    EXPECT_EQ(env.team_threads, 3);
    ++calls;
  });
  EXPECT_EQ(calls, 1);
}

}  // namespace
}  // namespace semfpga::runtime
