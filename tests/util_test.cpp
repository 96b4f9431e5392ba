// Tests for the util layer: deterministic RNG, string helpers, the
// worker pool, and the annotated lock/log primitives.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "util/flags.h"
#include "util/log.h"
#include "util/mutex.h"
#include "util/rng.h"
#include "util/strings.h"
#include "util/thread_pool.h"

namespace rr::util {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a{123}, b{123};
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a{1}, b{2};
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    if (a() == b()) ++equal;
  }
  EXPECT_LT(equal, 3);
}

TEST(Rng, NextBelowStaysInRange) {
  Rng rng{5};
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.next_below(7), 7u);
  }
  EXPECT_EQ(rng.next_below(1), 0u);
}

TEST(Rng, NextBelowIsRoughlyUniform) {
  Rng rng{6};
  std::array<int, 10> buckets{};
  constexpr int kDraws = 100000;
  for (int i = 0; i < kDraws; ++i) {
    ++buckets[rng.next_below(10)];
  }
  for (int count : buckets) {
    EXPECT_NEAR(count, kDraws / 10, kDraws / 100);
  }
}

TEST(Rng, NextInInclusiveBounds) {
  Rng rng{7};
  std::set<std::int64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.next_in(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);  // all values hit
}

TEST(Rng, ChanceExtremes) {
  Rng rng{8};
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.chance(0.0));
    EXPECT_TRUE(rng.chance(1.0));
  }
}

TEST(Rng, ChanceMatchesProbability) {
  Rng rng{9};
  int hits = 0;
  constexpr int kDraws = 100000;
  for (int i = 0; i < kDraws; ++i) {
    if (rng.chance(0.3)) ++hits;
  }
  EXPECT_NEAR(hits / static_cast<double>(kDraws), 0.3, 0.01);
}

TEST(Rng, NextDoubleInUnitInterval) {
  Rng rng{10};
  for (int i = 0; i < 10000; ++i) {
    const double v = rng.next_double();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(Rng, ShufflePermutes) {
  Rng rng{11};
  std::vector<int> v(50);
  for (int i = 0; i < 50; ++i) v[static_cast<std::size_t>(i)] = i;
  auto shuffled = v;
  rng.shuffle(shuffled);
  EXPECT_NE(shuffled, v);  // astronomically unlikely to be identity
  std::sort(shuffled.begin(), shuffled.end());
  EXPECT_EQ(shuffled, v);
}

TEST(Rng, ForkIsIndependentAndLabelled) {
  Rng parent1{42}, parent2{42};
  Rng child_a = parent1.fork("a");
  Rng child_b = parent2.fork("b");
  // Distinct labels give distinct streams.
  EXPECT_NE(child_a(), child_b());
  // Same label from identically-positioned parents gives the same stream.
  Rng parent3{42};
  Rng child_a2 = parent3.fork("a");
  EXPECT_EQ(child_a2(), Rng{42}.fork("a")());
}

TEST(Rng, PickWeightedRespectsWeights) {
  Rng rng{13};
  const std::vector<double> weights{1.0, 0.0, 3.0};
  std::array<int, 3> counts{};
  for (int i = 0; i < 40000; ++i) {
    ++counts[rng.pick_weighted(weights)];
  }
  EXPECT_EQ(counts[1], 0);
  EXPECT_NEAR(counts[2] / static_cast<double>(counts[0]), 3.0, 0.3);
}

TEST(Rng, GeometricCapped) {
  Rng rng{14};
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LE(rng.next_geometric(0.9, 5), 5);
  }
  // With p=0, never continues.
  EXPECT_EQ(rng.next_geometric(0.0, 5), 0);
}

TEST(Strings, WithCommas) {
  EXPECT_EQ(with_commas(0), "0");
  EXPECT_EQ(with_commas(999), "999");
  EXPECT_EQ(with_commas(1000), "1,000");
  EXPECT_EQ(with_commas(510305), "510,305");
  EXPECT_EQ(with_commas(1234567890), "1,234,567,890");
}

TEST(Strings, PercentAndFixed) {
  EXPECT_EQ(percent(0.754), "75%");
  EXPECT_EQ(percent(0.666, 1), "66.6%");
  EXPECT_EQ(fixed(3.14159, 2), "3.14");
}

TEST(Strings, SplitAndJoin) {
  const auto parts = split("a,b,,c", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[2], "");
  EXPECT_EQ(join(parts, "-"), "a-b--c");
  EXPECT_EQ(split("", ',').size(), 1u);
}

TEST(Strings, Padding) {
  EXPECT_EQ(pad_left("ab", 5), "   ab");
  EXPECT_EQ(pad_right("ab", 5), "ab   ");
  EXPECT_EQ(pad_left("abcdef", 3), "abc");  // truncates
}

TEST(Flags, ParsesKeyValueForms) {
  const char* argv[] = {"tool", "--a", "1", "--b=two", "--c", "pos",
                        "--d"};
  const auto flags = Flags::parse(7, argv);
  EXPECT_EQ(flags.get_int("a", 0), 1);
  EXPECT_EQ(flags.get("b"), "two");
  EXPECT_EQ(flags.get("c"), "pos");
  EXPECT_TRUE(flags.has("d"));
  EXPECT_FALSE(flags.has("missing"));
  EXPECT_EQ(flags.get("missing", "fb"), "fb");
}

TEST(Flags, PositionalAndDoubles) {
  const char* argv[] = {"tool", "input.rrds", "--rate", "2.5"};
  const auto flags = Flags::parse(4, argv);
  ASSERT_EQ(flags.positional().size(), 1u);
  EXPECT_EQ(flags.positional()[0], "input.rrds");
  EXPECT_DOUBLE_EQ(flags.get_double("rate", 0.0), 2.5);
}

TEST(Flags, TracksUnusedKeys) {
  const char* argv[] = {"tool", "--used", "1", "--typo", "2"};
  const auto flags = Flags::parse(5, argv);
  (void)flags.get_int("used", 0);
  const auto unused = flags.unused();
  ASSERT_EQ(unused.size(), 1u);
  EXPECT_EQ(unused[0], "typo");
}

/// Malformed numbers fail loudly, naming the flag and the value: a prefix
/// parse would silently run "--stream-block 8k" as 8.
TEST(Flags, RejectsMalformedNumbers) {
  const char* argv[] = {"tool", "--n", "", "--block=8k", "--x=x",
                        "--frac=1.5", "--big=99999999999999999999",
                        "--rate=2.5x", "--nan=nan", "--inf=inf",
                        "--huge=1e999", "--bare"};
  const auto flags = Flags::parse(12, argv);
  for (const char* key : {"n", "block", "x", "frac", "big", "bare"}) {
    EXPECT_THROW((void)flags.get_int(key, 0), std::invalid_argument) << key;
  }
  for (const char* key : {"n", "rate", "nan", "inf", "huge", "x"}) {
    EXPECT_THROW((void)flags.get_double(key, 0.0), std::invalid_argument)
        << key;
  }
  try {
    (void)flags.get_int("block", 0);
    ADD_FAILURE() << "no throw";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string{e.what()}.find("--block"), std::string::npos);
    EXPECT_NE(std::string{e.what()}.find("'8k'"), std::string::npos);
  }
}

TEST(Flags, AcceptsWholeNumbersAtTheBoundaries) {
  const char* argv[] = {"tool", "--min=-9223372036854775808",
                        "--max=9223372036854775807", "--neg=-3",
                        "--exp=1e3", "--tiny=-0.25"};
  const auto flags = Flags::parse(6, argv);
  EXPECT_EQ(flags.get_int("min", 0), std::numeric_limits<std::int64_t>::min());
  EXPECT_EQ(flags.get_int("max", 0), std::numeric_limits<std::int64_t>::max());
  EXPECT_EQ(flags.get_int("neg", 0), -3);
  EXPECT_DOUBLE_EQ(flags.get_double("exp", 0.0), 1000.0);
  EXPECT_DOUBLE_EQ(flags.get_double("tiny", 0.0), -0.25);
  EXPECT_EQ(parse_int("7", "N", 0, 7), 7);
  EXPECT_THROW((void)parse_int("8", "N", 0, 7), std::invalid_argument);
}

/// World seeds span uint64: the top value parses, while a sign — which a
/// signed read cast to uint64 would wrap onto the same seed — and values
/// past the top are malformed.
TEST(Flags, UnsignedValuesSpanTheFullRange) {
  const char* argv[] = {"tool", "--seed", "18446744073709551615",
                        "--neg", "-1", "--over=18446744073709551616",
                        "--zero=0"};
  const auto flags = Flags::parse(7, argv);
  EXPECT_EQ(flags.get_uint("seed", 7),
            std::numeric_limits<std::uint64_t>::max());
  EXPECT_EQ(flags.get_uint("zero", 7), 0u);
  EXPECT_EQ(flags.get_uint("absent", 7), 7u);
  EXPECT_THROW((void)flags.get_uint("over", 7), std::invalid_argument);
  try {
    (void)flags.get_uint("neg", 7);
    ADD_FAILURE() << "no throw";
  } catch (const std::invalid_argument& e) {
    EXPECT_EQ(std::string{e.what()}.rfind("--neg: ", 0), 0u) << e.what();
  }
  EXPECT_TRUE(flags.unused().empty());
}

/// Ranges are inclusive and checked after the strict parse; an absent
/// flag's fallback is returned as is. Choices list the accepted values.
TEST(Flags, RangesAndChoicesRejectValuesOutsideThem) {
  const char* argv[] = {"tool", "--ttl=300", "--low=1", "--pps=0",
                        "--rate=0.5", "--type=bogus", "--epoch=2011"};
  const auto flags = Flags::parse(7, argv);
  const auto message = [](auto&& read) -> std::string {
    try {
      (void)read();
    } catch (const std::invalid_argument& e) {
      return e.what();
    }
    return "no throw";
  };
  EXPECT_EQ(message([&] { return flags.get_int("ttl", 64, 1, 255); }),
            "--ttl: expected an integer in [1, 255], got '300'");
  EXPECT_EQ(flags.get_int("low", 64, 1, 255), 1);
  EXPECT_EQ(flags.get_int("absent", 64, 1, 8), 64);
  const double positive = std::numeric_limits<double>::min();
  EXPECT_EQ(message([&] { return flags.get_double("pps", 20.0, positive); }),
            "--pps: expected a number in (0, 1.79769e+308], got '0'");
  EXPECT_DOUBLE_EQ(flags.get_double("rate", 20.0, positive), 0.5);
  EXPECT_THROW((void)flags.get_double("rate", 20.0, 1.0, 2.0),
               std::invalid_argument);
  EXPECT_EQ(
      message([&] { return flags.get_choice("type", "rr", {"ping", "rr"}); }),
      "--type: expected one of ping|rr, got 'bogus'");
  EXPECT_EQ(flags.get_choice("epoch", "2016", {"2011", "2016"}), "2011");
  EXPECT_EQ(flags.get_choice("absent", "2016", {"2011", "2016"}), "2016");
}

/// The unsigned twin keeps the full uint64 range (world seeds) and treats
/// a sign, a suffix or an out-of-range value as malformed.
TEST(Strings, ParseUintSpansUint64AndRejectsMalformedInput) {
  EXPECT_EQ(parse_uint("18446744073709551615", "SEED"),
            std::numeric_limits<std::uint64_t>::max());
  EXPECT_EQ(parse_uint("0", "SEED"), 0u);
  EXPECT_EQ(parse_uint("100", "N", 100, 200), 100u);
  for (const char* bad : {"", "-1", "+1", " 1", "8k", "0x10",
                          "18446744073709551616"}) {
    EXPECT_THROW((void)parse_uint(bad, "SEED"), std::invalid_argument)
        << "'" << bad << "'";
  }
  EXPECT_THROW((void)parse_uint("99", "N", 100, 200), std::invalid_argument);
  try {
    (void)parse_uint("8k", "RROPT_STREAM_BLOCK");
    ADD_FAILURE() << "no throw";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string{e.what()}.find("RROPT_STREAM_BLOCK"),
              std::string::npos);
    EXPECT_NE(std::string{e.what()}.find("'8k'"), std::string::npos);
  }
}

/// RROPT_THREADS is parsed strictly too; 0 keeps meaning all cores, and an
/// explicit request never reads the variable.
TEST(ThreadPool, ResolveThreadCountParsesEnvStrictly) {
  const char* saved = std::getenv("RROPT_THREADS");
  const std::string restore = saved != nullptr ? saved : "";
  ::unsetenv("RROPT_THREADS");
  const int all_cores = resolve_thread_count();
  EXPECT_GE(all_cores, 1);

  ::setenv("RROPT_THREADS", "3", 1);
  EXPECT_EQ(resolve_thread_count(), 3);
  EXPECT_EQ(resolve_thread_count(5), 5);
  ::setenv("RROPT_THREADS", "0", 1);
  EXPECT_EQ(resolve_thread_count(), all_cores);
  for (const char* bad : {"", "x", "4x", " 4", "-1", "99999999999"}) {
    ::setenv("RROPT_THREADS", bad, 1);
    EXPECT_THROW((void)resolve_thread_count(), std::invalid_argument)
        << "'" << bad << "'";
    EXPECT_EQ(resolve_thread_count(2), 2);
  }

  if (saved != nullptr) {
    ::setenv("RROPT_THREADS", restore.c_str(), 1);
  } else {
    ::unsetenv("RROPT_THREADS");
  }
}

TEST(Hashing, LabelHashIsStable) {
  EXPECT_EQ(hash_label("x"), hash_label("x"));
  EXPECT_NE(hash_label("x"), hash_label("y"));
}

TEST(ThreadPool, RunsEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  constexpr std::size_t kN = 1000;
  std::vector<std::atomic<int>> hits(kN);
  pool.parallel_for(kN, [&](std::size_t i) {
    hits[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (std::size_t i = 0; i < kN; ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPool, ZeroAndSingleThreadDegenerateCases) {
  ThreadPool pool(1);
  int calls = 0;
  pool.parallel_for(0, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  pool.parallel_for(5, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls, 5);
}

// Regression stress for the stale-worker race: a worker that wakes for
// region G but is preempted until G completes must not claim an index of
// the region that replaced it (invoking G's destroyed job closure). Many
// tiny back-to-back regions — each with a fresh closure over fresh state —
// maximize the window; a stale claim shows up as a missed or doubled index
// (or a crash under sanitizers).
TEST(ThreadPool, BackToBackRegionsNeverLeakWorkAcrossGenerations) {
  ThreadPool pool(8);
  constexpr int kRegions = 3000;
  for (int r = 0; r < kRegions; ++r) {
    const std::size_t n = 1 + static_cast<std::size_t>(r % 7);
    std::vector<std::atomic<int>> hits(n);
    pool.parallel_for(n, [&](std::size_t i) {
      hits[i].fetch_add(1, std::memory_order_relaxed);
    });
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(hits[i].load(), 1) << "region " << r << " index " << i;
    }
  }
}

// util::Mutex is the annotated wrapper rropt-lint's raw-mutex rule points
// everyone at; make sure it actually excludes.
TEST(Mutex, MutualExclusionUnderContention) {
  Mutex mu;
  long long counter = 0;  // guarded by mu (locals can't carry the attribute)
  constexpr int kThreads = 8;
  constexpr int kIters = 20000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kIters; ++i) {
        MutexLock lock(mu);
        ++counter;
      }
    });
  }
  for (auto& thread : threads) thread.join();
  MutexLock lock(mu);
  EXPECT_EQ(counter, static_cast<long long>(kThreads) * kIters);
}

TEST(Mutex, TryLockReportsContention) {
  Mutex mu;
  mu.lock();
  EXPECT_FALSE(mu.try_lock());
  mu.unlock();
  ASSERT_TRUE(mu.try_lock());
  mu.unlock();
}

TEST(Log, SinkRedirectAndLineCounter) {
  std::FILE* sink = std::tmpfile();
  ASSERT_NE(sink, nullptr);
  set_log_sink(sink);
  const auto before = log_lines_emitted();
  log_line(LogLevel::kWarn, "redirected line");
  log_line(LogLevel::kDebug, "below level: discarded");
  set_log_sink(nullptr);  // restore stderr before asserting
  EXPECT_EQ(log_lines_emitted(), before + 1);

  std::rewind(sink);
  char buffer[128] = {};
  ASSERT_NE(std::fgets(buffer, sizeof buffer, sink), nullptr);
  EXPECT_EQ(std::string(buffer), "[warn] redirected line\n");
  EXPECT_EQ(std::fgets(buffer, sizeof buffer, sink), nullptr);
  std::fclose(sink);
}

TEST(Log, ConcurrentWritersNeverInterleaveMidLine) {
  std::FILE* sink = std::tmpfile();
  ASSERT_NE(sink, nullptr);
  set_log_sink(sink);
  constexpr int kThreads = 4;
  constexpr int kLines = 200;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t] {
      const std::string line = "writer-" + std::to_string(t);
      for (int i = 0; i < kLines; ++i) log_line(LogLevel::kWarn, line);
    });
  }
  for (auto& thread : threads) thread.join();
  set_log_sink(nullptr);

  std::rewind(sink);
  std::array<int, kThreads> seen{};
  char buffer[128];
  while (std::fgets(buffer, sizeof buffer, sink) != nullptr) {
    const std::string line{buffer};
    bool matched = false;
    for (int t = 0; t < kThreads; ++t) {
      if (line == "[warn] writer-" + std::to_string(t) + "\n") {
        ++seen[static_cast<std::size_t>(t)];
        matched = true;
      }
    }
    EXPECT_TRUE(matched) << "torn log line: " << line;
  }
  std::fclose(sink);
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(seen[static_cast<std::size_t>(t)], kLines);
  }
}

}  // namespace
}  // namespace rr::util
