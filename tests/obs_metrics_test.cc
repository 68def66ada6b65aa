#include "obs/metrics.h"

#include <gtest/gtest.h>

#include <string>

namespace evc::obs {
namespace {

TEST(Counter, IncrementsByOneAndByDelta) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.Inc();
  EXPECT_EQ(c.value(), 1u);
  c.Inc(41);
  EXPECT_EQ(c.value(), 42u);
}

TEST(Gauge, SetAndAdd) {
  Gauge g;
  EXPECT_DOUBLE_EQ(g.value(), 0.0);
  g.Set(3.5);
  EXPECT_DOUBLE_EQ(g.value(), 3.5);
  g.Add(-1.5);
  EXPECT_DOUBLE_EQ(g.value(), 2.0);
}

TEST(MetricsRegistry, CreatesOnFirstUseAndReturnsSameInstrument) {
  MetricsRegistry reg;
  EXPECT_TRUE(reg.empty());
  Counter& c = reg.CounterFor("net.sent");
  c.Inc();
  EXPECT_FALSE(reg.empty());
  EXPECT_EQ(&reg.CounterFor("net.sent"), &c);
  EXPECT_EQ(reg.CounterFor("net.sent").value(), 1u);
}

TEST(MetricsRegistry, ReferencesStayStableAcrossGrowth) {
  MetricsRegistry reg;
  Counter& c = reg.CounterFor("a");
  Histogram& h = reg.HistogramFor("lat");
  // Registering many more instruments must not move the earlier ones —
  // hot paths cache these references across the whole run.
  for (int i = 0; i < 1000; ++i) {
    reg.CounterFor("c" + std::to_string(i));
    reg.HistogramFor("h" + std::to_string(i));
  }
  c.Inc();
  h.Add(5.0);
  EXPECT_EQ(reg.CounterFor("a").value(), 1u);
  EXPECT_EQ(reg.HistogramFor("lat").count(), 1u);
}

TEST(MetricsRegistry, IterationIsNameOrdered) {
  MetricsRegistry reg;
  reg.CounterFor("zeta");
  reg.CounterFor("alpha");
  reg.CounterFor("mid");
  std::vector<std::string> names;
  for (const auto& [name, c] : reg.counters()) names.push_back(name);
  EXPECT_EQ(names, (std::vector<std::string>{"alpha", "mid", "zeta"}));
}

TEST(MetricsRegistry, MergeFromAddsCountersAndGaugesAndHistograms) {
  MetricsRegistry a, b;
  a.CounterFor("x").Inc(2);
  b.CounterFor("x").Inc(3);
  b.CounterFor("only_b").Inc(7);
  a.GaugeFor("g").Set(1.0);
  b.GaugeFor("g").Set(2.5);
  a.HistogramFor("h").Add(1.0);
  b.HistogramFor("h").Add(100.0);
  a.MergeFrom(b);
  EXPECT_EQ(a.CounterFor("x").value(), 5u);
  EXPECT_EQ(a.CounterFor("only_b").value(), 7u);
  EXPECT_DOUBLE_EQ(a.GaugeFor("g").value(), 3.5);
  EXPECT_EQ(a.HistogramFor("h").count(), 2u);
  EXPECT_DOUBLE_EQ(a.HistogramFor("h").min(), 1.0);
  EXPECT_DOUBLE_EQ(a.HistogramFor("h").max(), 100.0);
  // The source is untouched.
  EXPECT_EQ(b.CounterFor("x").value(), 3u);
}

TEST(Metrics, NodeRegistriesGrowLazily) {
  Metrics m;
  EXPECT_EQ(m.node_limit(), 0u);
  EXPECT_EQ(m.node_if(3), nullptr);
  m.node(3).CounterFor("n").Inc();
  EXPECT_EQ(m.node_limit(), 4u);
  ASSERT_NE(m.node_if(3), nullptr);
  EXPECT_EQ(m.node_if(3)->counters().at("n").value(), 1u);
  // Nodes below the high-water mark that never recorded stay null.
  EXPECT_EQ(m.node_if(0), nullptr);
  EXPECT_EQ(m.node_if(99), nullptr);
}

TEST(Metrics, MergedCombinesGlobalAndAllNodes) {
  Metrics m;
  m.global().CounterFor("ops").Inc(1);
  m.node(0).CounterFor("ops").Inc(10);
  m.node(2).CounterFor("ops").Inc(100);
  m.node(2).HistogramFor("lat").Add(7.0);
  const MetricsRegistry merged = m.Merged();
  EXPECT_EQ(merged.counters().at("ops").value(), 111u);
  EXPECT_EQ(merged.histograms().at("lat").count(), 1u);
}

TEST(Tally, CreatesItsCounterOnFirstIncEvenAtZero) {
  MetricsRegistry reg;
  Tally t("dyn.hints_lost");
  EXPECT_TRUE(reg.empty());
  t.Inc(reg, 0);
  ASSERT_EQ(reg.counters().size(), 1u);
  EXPECT_EQ(reg.counters().at("dyn.hints_lost").value(), 0u);
  EXPECT_EQ(t, 0u);
}

TEST(Tally, EachReadsItsOwnCountWhileTheRegistrySumsThem) {
  MetricsRegistry reg;
  Tally a("resilience.attempts");
  Tally b("resilience.attempts");
  a.Inc(reg);
  b.Inc(reg, 2);
  a.Inc(reg, 4);
  EXPECT_EQ(a, 5u);
  EXPECT_EQ(b, 2u);
  EXPECT_EQ(reg.counters().size(), 1u);
  EXPECT_EQ(reg.counters().at("resilience.attempts").value(), 7u);
}

TEST(Tally, NullNameCountsOnlyLocally) {
  MetricsRegistry reg;
  Tally t;
  t.Inc(reg, 0);
  t.Inc(reg, 3);
  EXPECT_EQ(t, 3u);
  EXPECT_TRUE(reg.empty());
}

}  // namespace
}  // namespace evc::obs
