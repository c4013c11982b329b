// Tests for the network simulators: conservation laws, equivalence of the
// unbuffered router with the osp game (the paper's reduction), buffered
// behaviour, and the distributed pipeline.
#include <gtest/gtest.h>

#include "algos/baselines.hpp"
#include "core/game.hpp"
#include "core/rand_pr.hpp"
#include "gen/traffic.hpp"
#include "gen/video.hpp"
#include "net/pipeline.hpp"
#include "net/router_sim.hpp"
#include "testing/scripted.hpp"
#include "util/require.hpp"
#include "util/rng.hpp"

namespace osp {
namespace {

FrameSchedule sample_schedule(std::uint64_t seed, std::size_t frames = 60,
                              std::size_t k = 3) {
  Rng rng(seed);
  PoissonBursts bursts(2.5);
  return bursty_schedule(bursts, frames, k, rng);
}

TEST(Router, PacketConservation) {
  FrameSchedule sched = sample_schedule(1);
  GreedyFirst alg;
  RouterStats st = simulate_router(sched, alg, 1);
  EXPECT_EQ(st.packets_arrived, sched.total_packets());
  EXPECT_EQ(st.packets_served + st.packets_dropped, st.packets_arrived);
  EXPECT_EQ(st.frames_total, sched.frames.size());
  EXPECT_LE(st.frames_delivered, st.frames_total);
  EXPECT_LE(st.value_delivered, st.value_total + 1e-9);
}

TEST(Router, EquivalentToOspGame) {
  // The unbuffered router IS the osp game under the paper's reduction:
  // same algorithm seed => identical benefit, frame for frame.
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    FrameSchedule sched = sample_schedule(100 + seed);
    RandPr router_alg{Rng(seed)};
    RandPr game_alg{Rng(seed)};
    RouterStats rs = simulate_router(sched, router_alg, 1);
    Outcome go = play(sched.to_instance(1), game_alg);
    EXPECT_DOUBLE_EQ(rs.value_delivered, go.benefit) << "seed " << seed;
    EXPECT_EQ(rs.frames_delivered, go.completed.size());
  }
}

TEST(Router, EquivalenceHoldsWithHigherServiceRate) {
  for (std::uint64_t seed = 0; seed < 5; ++seed) {
    FrameSchedule sched = sample_schedule(200 + seed, 80, 4);
    RandPr router_alg{Rng(seed)};
    RandPr game_alg{Rng(seed)};
    RouterStats rs = simulate_router(sched, router_alg, 2);
    Outcome go = play(sched.to_instance(2), game_alg);
    EXPECT_DOUBLE_EQ(rs.value_delivered, go.benefit);
  }
}

TEST(Router, AmpleCapacityDeliversEverything) {
  FrameSchedule sched = sample_schedule(3, 30, 2);
  Capacity ample = static_cast<Capacity>(sched.max_burst());
  GreedyFirst alg;
  RouterStats st = simulate_router(sched, alg, ample);
  EXPECT_EQ(st.frames_delivered, st.frames_total);
  EXPECT_EQ(st.packets_dropped, 0u);
}

TEST(Router, RejectsServingOneFrameTwiceInASlot) {
  // Frame 0 has packets in slots 0 and 1.  Answering {0, 0} in slot 0 at
  // service rate 2 is two servings of one packet, not a delivered frame.
  FrameSchedule sched;
  sched.horizon = 2;
  sched.frames = {Frame{1.0, {0, 1}}, Frame{1.0, {0}}};
  testkit::Scripted alg({{0, 0}, {}});
  EXPECT_THROW(simulate_router(sched, alg, 2), RequireError);
}

TEST(Rankers, StartAndRank) {
  std::vector<SetMeta> frames{{4.0, 2}, {1.0, 2}};
  WeightRanker wr;
  wr.start(frames);
  EXPECT_GT(wr.rank(0), wr.rank(1));

  RandPrRanker rp{Rng(1)};
  rp.start(frames);
  EXPECT_NE(rp.rank(0), rp.rank(1));

  FifoRanker fifo;
  fifo.start(frames);
  EXPECT_DOUBLE_EQ(fifo.rank(0), fifo.rank(1));
}

TEST(BufferedRouter, ZeroBufferStillConserves) {
  FrameSchedule sched = sample_schedule(4);
  FifoRanker fifo;
  RouterStats st =
      simulate_buffered_router(sched, fifo, {.service_rate = 1,
                                             .buffer_size = 0,
                                             .drop_dead_frames = false});
  EXPECT_EQ(st.packets_served + st.packets_dropped, st.packets_arrived);
}

TEST(BufferedRouter, BufferImprovesFifoGoodput) {
  // Statistically, a buffer can only help drop-tail.
  Rng master(5);
  double no_buf = 0, with_buf = 0;
  const int trials = 30;
  for (int t = 0; t < trials; ++t) {
    FrameSchedule sched = sample_schedule(500 + t);
    FifoRanker f1, f2;
    no_buf += simulate_buffered_router(
                  sched, f1, {.service_rate = 1, .buffer_size = 0,
                              .drop_dead_frames = false})
                  .goodput();
    with_buf += simulate_buffered_router(
                    sched, f2, {.service_rate = 1, .buffer_size = 8,
                                .drop_dead_frames = false})
                    .goodput();
  }
  EXPECT_GE(with_buf, no_buf);
}

TEST(BufferedRouter, DropDeadFramesHelps) {
  Rng master(6);
  double keep_dead = 0, drop_dead = 0;
  const int trials = 30;
  for (int t = 0; t < trials; ++t) {
    FrameSchedule sched = sample_schedule(700 + t, 80, 4);
    RandPrRanker r1{master.split(t)}, r2{master.split(t)};
    keep_dead += simulate_buffered_router(
                     sched, r1, {.service_rate = 1, .buffer_size = 4,
                                 .drop_dead_frames = false})
                     .goodput();
    drop_dead += simulate_buffered_router(
                     sched, r2, {.service_rate = 1, .buffer_size = 4,
                                 .drop_dead_frames = true})
                     .goodput();
  }
  EXPECT_GE(drop_dead, keep_dead);
}

// The heap router and the full-sort reference must be decision-identical:
// same serviced packet (frame AND arrival seq) in every service step of
// every slot, and same aggregate counters — across rankers, buffer sizes,
// service rates, and both dead-frame modes.  Unit frame weights make rank
// ties ubiquitous, which is exactly where ordering bugs would hide.
TEST(BufferedRouter, HeapMatchesSortReferenceSlotForSlot) {
  Rng master(42);
  BufferedRouterScratch scratch;  // reused across all runs on purpose
  RandPrRanker randpr{Rng(0)};
  WeightRanker weight;
  FifoRanker fifo;
  RandomRanker random{Rng(0)};
  FrameRanker* rankers[] = {&randpr, &weight, &fifo, &random};

  int compared = 0;
  for (std::uint64_t seed = 0; seed < 6; ++seed) {
    FrameSchedule sched = sample_schedule(900 + seed, 50, 3);
    for (std::size_t buf : {0, 1, 3, 8, 64}) {
      for (Capacity rate : {1, 2, 5}) {
        for (bool drop_dead : {true, false}) {
          BufferedRouterParams params{rate, buf, drop_dead};
          for (FrameRanker* ranker : rankers) {
            ranker->reseed(Rng(seed));
            RouterTrace ref_trace;
            RouterStats ref = simulate_buffered_router_reference(
                sched, *ranker, params, &ref_trace);

            ranker->reseed(Rng(seed));
            RouterTrace heap_trace;
            RouterStats heap = simulate_buffered_router(
                sched, *ranker, params, &scratch, &heap_trace);

            ASSERT_EQ(heap.packets_arrived, ref.packets_arrived);
            ASSERT_EQ(heap.packets_served, ref.packets_served);
            ASSERT_EQ(heap.packets_dropped, ref.packets_dropped);
            ASSERT_EQ(heap.frames_delivered, ref.frames_delivered);
            ASSERT_DOUBLE_EQ(heap.value_delivered, ref.value_delivered);
            ASSERT_EQ(heap_trace.served.size(), ref_trace.served.size());
            for (std::size_t i = 0; i < ref_trace.served.size(); ++i) {
              ASSERT_EQ(heap_trace.served[i].slot, ref_trace.served[i].slot)
                  << "seed " << seed << " " << ranker->name() << " step "
                  << i;
              ASSERT_EQ(heap_trace.served[i].frame,
                        ref_trace.served[i].frame);
              ASSERT_EQ(heap_trace.served[i].seq, ref_trace.served[i].seq);
            }
            ++compared;
          }
        }
      }
    }
  }
  EXPECT_EQ(compared, 6 * 5 * 3 * 2 * 4);
}

// Regression for the dead-frame service waste of the pre-queue.hpp
// simulator.  Frames (weight, packet slots), service rate 1, buffer 3,
// WeightRanker, drop_dead_frames on:
//   H (10, {0,1,2,3})  — hogs the link every slot it appears
//   C ( 1, {1})   D (1, {2})   E (1, {3})   B (1, {0,3})
// At slot 3 the queue holds [B#0, C, D, E, B#1] (all rank 1, FIFO order)
// and must shrink to 3.  The old simulator kept the top 3 — B#0, C, D —
// and dropped E and B#1, killing BOTH E and B while B's doomed first
// packet sat in the buffer (to be "served" at slot 6, wasting the link):
// delivered value 12/14.  The fixed router evicts B#0 together with B#1
// (a dead frame can never be delivered), which saves E: 13/14.
TEST(BufferedRouter, EvictingDeadFramePacketsSavesLiveFrames) {
  FrameSchedule sched;
  sched.frames.push_back({10.0, {0, 1, 2, 3}});  // H
  sched.frames.push_back({1.0, {1}});            // C
  sched.frames.push_back({1.0, {2}});            // D
  sched.frames.push_back({1.0, {3}});            // E
  sched.frames.push_back({1.0, {0, 3}});         // B
  sched.horizon = 7;

  WeightRanker ranker;
  BufferedRouterParams params{1, 3, true};
  for (bool use_heap : {true, false}) {
    RouterStats st =
        use_heap ? simulate_buffered_router(sched, ranker, params)
                 : simulate_buffered_router_reference(sched, ranker, params);
    EXPECT_EQ(st.packets_arrived, 9u);
    EXPECT_EQ(st.packets_served, 7u);
    EXPECT_EQ(st.packets_dropped, 2u);
    EXPECT_EQ(st.frames_delivered, 4u);  // H, C, D and the rescued E
    EXPECT_DOUBLE_EQ(st.value_delivered, 13.0);
    EXPECT_DOUBLE_EQ(st.goodput(), 13.0 / 14.0);  // old simulator: 12/14
  }
}

TEST(BufferedRouter, RefusesArrivalsOfDeadFrames) {
  // Frame A loses its first packet to a zero buffer at slot 0 (B outranks
  // it); its second packet must be refused on arrival, leaving the link
  // free for C.
  FrameSchedule sched;
  sched.frames.push_back({5.0, {0}});     // B: wins slot 0
  sched.frames.push_back({1.0, {0, 1}});  // A: dies at slot 0
  sched.frames.push_back({0.5, {1}});     // C: must be served at slot 1
  sched.horizon = 2;
  WeightRanker ranker;
  RouterStats st =
      simulate_buffered_router(sched, ranker, {1, 0, true});
  EXPECT_EQ(st.packets_served, 2u);
  EXPECT_EQ(st.frames_delivered, 2u);  // B and C
  EXPECT_DOUBLE_EQ(st.value_delivered, 5.5);
}

TEST(BufferedRouter, AmpleServiceRateDeliversEverythingEvenUnbuffered) {
  FrameSchedule sched = sample_schedule(11, 40, 3);
  Capacity ample = static_cast<Capacity>(sched.max_burst());
  FifoRanker fifo;
  for (std::size_t buf : {0, 5}) {
    RouterStats st =
        simulate_buffered_router(sched, fifo, {ample, buf, true});
    EXPECT_EQ(st.packets_dropped, 0u);
    EXPECT_EQ(st.packets_served, st.packets_arrived);
    EXPECT_EQ(st.frames_delivered, st.frames_total);
  }
}

TEST(BufferedRouter, ServiceRateAboveQueueSizeIsHarmless) {
  // service_rate far beyond any queue population: the serve loop must
  // stop at an empty queue, not underflow or serve phantom packets.
  FrameSchedule sched;
  sched.frames.push_back({1.0, {0}});
  sched.frames.push_back({2.0, {2}});
  sched.horizon = 4;
  FifoRanker fifo;
  RouterStats st = simulate_buffered_router(sched, fifo, {100, 10, true});
  EXPECT_EQ(st.packets_served, 2u);
  EXPECT_EQ(st.packets_dropped, 0u);
  EXPECT_EQ(st.frames_delivered, 2u);
}

TEST(BufferedRouter, HorizonEndDropsKillDelivery) {
  // Two packets arrive in the last slot; one is served, the straggler is
  // dropped at the horizon and its frame with it.
  FrameSchedule sched;
  sched.frames.push_back({1.0, {0, 1}});
  sched.frames.push_back({3.0, {1}});
  sched.horizon = 2;
  WeightRanker ranker;
  RouterStats st =
      simulate_buffered_router(sched, ranker, {1, 4, true});
  // Slot 0: frame 0's first packet served.  Slot 1: frame 1 outranks
  // frame 0's second packet; the horizon ends with it still queued.
  EXPECT_EQ(st.packets_served, 2u);
  EXPECT_EQ(st.packets_dropped, 1u);
  EXPECT_EQ(st.frames_delivered, 1u);
  EXPECT_DOUBLE_EQ(st.value_delivered, 3.0);
}

TEST(BufferedRouter, ConservationHoldsAcrossParamGrid) {
  Rng master(77);
  BufferedRouterScratch scratch;
  for (std::uint64_t seed = 0; seed < 4; ++seed) {
    FrameSchedule sched = sample_schedule(1300 + seed, 70, 4);
    RandPrRanker ranker{master.split(seed)};
    for (std::size_t buf : {0, 2, 16, 1000}) {
      for (Capacity rate : {1, 3, 7}) {
        for (bool drop_dead : {true, false}) {
          RouterStats st = simulate_buffered_router(
              sched, ranker, {rate, buf, drop_dead}, &scratch);
          ASSERT_EQ(st.packets_arrived, sched.total_packets());
          ASSERT_EQ(st.packets_served + st.packets_dropped,
                    st.packets_arrived);
          ASSERT_LE(st.value_delivered, st.value_total + 1e-9);
        }
      }
    }
  }
}

TEST(Rankers, ReseedMatchesFreshConstruction) {
  std::vector<SetMeta> frames{{4.0, 2}, {1.0, 2}, {2.5, 3}};
  RandPrRanker fresh{Rng(99)};
  fresh.start(frames);
  RandPrRanker reused{Rng(1)};
  reused.start(frames);  // consume some randomness first
  reused.reseed(Rng(99));
  reused.start(frames);
  for (SetId f = 0; f < frames.size(); ++f)
    EXPECT_DOUBLE_EQ(reused.rank(f), fresh.rank(f));

  RandomRanker rfresh{Rng(5)};
  rfresh.start(frames);
  RandomRanker rreused{Rng(2)};
  rreused.start(frames);
  rreused.reseed(Rng(5));
  rreused.start(frames);
  for (SetId f = 0; f < frames.size(); ++f)
    EXPECT_DOUBLE_EQ(rreused.rank(f), rfresh.rank(f));
}

TEST(Router, NonPositiveFrameWeightsFailLoudly) {
  // Satellite of the clamp removal: a zero-weight frame must be rejected
  // by FrameSchedule::validate() — not silently clamped into a near-zero
  // randPr priority.
  FrameSchedule sched;
  sched.frames.push_back({0.0, {0}});
  sched.horizon = 1;
  EXPECT_THROW(sched.validate(), RequireError);

  FifoRanker fifo;
  EXPECT_THROW(simulate_buffered_router(sched, fifo, {1, 0, true}),
               RequireError);
  GreedyFirst alg;
  EXPECT_THROW(simulate_router(sched, alg, 1), RequireError);

  sched.frames[0].weight = -1.0;
  EXPECT_THROW(sched.validate(), RequireError);
}

TEST(BufferedRouter, UnfinishedQueueCountsAsDropped) {
  FrameSchedule sched;
  sched.frames.push_back({1.0, {0}});
  sched.frames.push_back({1.0, {0}});
  sched.frames.push_back({1.0, {0}});
  sched.horizon = 1;  // only one service opportunity
  FifoRanker fifo;
  RouterStats st = simulate_buffered_router(
      sched, fifo,
      {.service_rate = 1, .buffer_size = 10, .drop_dead_frames = false});
  EXPECT_EQ(st.packets_served, 1u);
  EXPECT_EQ(st.packets_dropped, 2u);
  EXPECT_EQ(st.frames_delivered, 1u);
}

TEST(Pipeline, ConservationAndBounds) {
  Rng rng(7);
  MultiHopParams params;
  params.num_switches = 4;
  params.num_packets = 50;
  params.horizon = 25;
  params.min_route = 2;
  params.max_route = 4;
  MultiHopWorkload w = make_multihop_workload(params, rng);
  PipelineStats st = simulate_pipeline(
      w, params.num_switches,
      [](std::size_t) { return std::make_unique<GreedyFirst>(); });
  EXPECT_EQ(st.packets_total, 50u);
  EXPECT_LE(st.packets_delivered, st.packets_total);
  EXPECT_LE(st.value_delivered, st.value_total + 1e-9);
  EXPECT_GE(st.delivery_rate(), 0.0);
}

TEST(Pipeline, NoContentionDeliversAll) {
  // One packet: nothing to contend with; it must arrive.
  Rng rng(8);
  MultiHopParams params;
  params.num_packets = 1;
  params.num_switches = 4;
  params.min_route = params.max_route = 4;
  MultiHopWorkload w = make_multihop_workload(params, rng);
  PipelineStats st = simulate_pipeline(
      w, params.num_switches,
      [](std::size_t) { return std::make_unique<GreedyFirst>(); });
  EXPECT_EQ(st.packets_delivered, 1u);
}

TEST(Pipeline, RejectsChoosingAnAbsentPacket) {
  // One switch, packet 0 at time 0 and packet 1 at time 1: a policy that
  // serves packet 1 at time 0 names a packet that is not on the link.
  InstanceBuilder b;
  b.add_sets(2);
  b.add_element({0});
  b.add_element({1});
  MultiHopWorkload w{b.build(), {0, 1}, {0, 0}, {1, 1}};
  EXPECT_THROW(simulate_pipeline(w, 1,
                                 [](std::size_t) {
                                   return std::make_unique<testkit::Scripted>(
                                       std::vector<std::vector<SetId>>{{1},
                                                                       {1}});
                                 }),
               RequireError);
}

TEST(Pipeline, SharedHashBeatsIndependentRandomness) {
  // The paper's Section 3.1 point: one shared hash function gives every
  // switch consistent priorities; independent randomness at each switch
  // wastes capacity on packets that later lose anyway.
  //
  // Routes must be SHORT relative to the path: packets advance in
  // lockstep, so contention groups live on time-diagonals, and if every
  // route covers one common hop then exactly one packet per diagonal
  // survives it no matter what the policy does — delivery becomes
  // policy-invariant.  Short staggered routes avoid that degeneracy.
  Rng master(9);
  double shared_total = 0, indep_total = 0;
  const int trials = 40;
  for (int t = 0; t < trials; ++t) {
    Rng wl_rng = master.split(t);
    MultiHopParams params;
    params.num_switches = 8;
    params.num_packets = 150;
    params.horizon = 18;
    params.min_route = 2;
    params.max_route = 4;
    MultiHopWorkload w = make_multihop_workload(params, wl_rng);

    Rng hash_rng = master.split(1000 + t);
    auto h = std::make_shared<PolynomialHash>(8, hash_rng);
    PipelineStats shared = simulate_pipeline(
        w, params.num_switches, [&](std::size_t) {
          return std::make_unique<HashedRandPr>(
              [h](std::uint64_t key) { return h->unit(key); }, "shared");
        });

    Rng indep_rng = master.split(2000 + t);
    PipelineStats indep = simulate_pipeline(
        w, params.num_switches, [&](std::size_t s) {
          return std::make_unique<RandPr>(indep_rng.split(s));
        });
    shared_total += static_cast<double>(shared.packets_delivered);
    indep_total += static_cast<double>(indep.packets_delivered);
  }
  EXPECT_GT(shared_total, indep_total);
}

}  // namespace
}  // namespace osp
