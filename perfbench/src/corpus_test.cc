// Self-test of the corpus generator's truth and of the answer checks,
// on a hand-written corpus whose answers are worked out by hand below.
// Exits 0 when every check holds.
//
//   cmake --build .bench_build --target perfbench_test
//   .bench_build/perfbench_test

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "checks.h"
#include "core/engine.h"
#include "corpus.h"

namespace perfbench {
namespace {

int failures = 0;

#define EXPECT(cond)                                              \
  do {                                                            \
    if (!(cond)) {                                                \
      std::fprintf(stderr, "%s:%d: EXPECT(%s) failed\n", __FILE__, \
                   __LINE__, #cond);                              \
      ++failures;                                                 \
    }                                                             \
  } while (0)

Measurement M(int32_t date, DataType type, int32_t station, int32_t value) {
  Measurement m;
  m.date = date;
  m.type = type;
  m.station = station;
  m.value = value;
  return m;
}

// Two files, three records, nine measurements.
std::vector<FileRecords> HandCorpus() {
  FileRecords file0 = {
      Record{{M(20031225, kTmin, 7, 10), M(20031225, kTmax, 7, 50),
              M(20021225, kTmin, 7, -20)}},
      Record{{M(20031225, kTmin, 7, 30), M(20100601, kTmax, 7, 100)}},
  };
  FileRecords file1 = {
      Record{{M(20100601, kTmin, 9, 0), M(20100601, kTmax, 9, 40),
              M(20141225, kPrcp, 9, 5), M(20141224, kTmax, 9, 1)}},
  };
  return {file0, file1};
}

void TestRendering() {
  FileRecords one = {Record{{M(20031225, kTmin, 7, 10)}}};
  Truth truth;
  std::string text = RenderFile(one, Style::kCompact, &truth);
  EXPECT(text ==
         "{\"root\":[{\"metadata\":{\"count\":1},\"results\":[{\"date\":"
         "\"2003-12-25T00:00:00\",\"dataType\":\"TMIN\",\"station\":"
         "\"GHCND:USW00000007\",\"value\":10}]}]}");
  EXPECT(truth.bytes == text.size());
  EXPECT(truth.measurements == 1);
}

void TestHandTruth() {
  Truth truth;
  uint64_t bytes = 0;
  for (const FileRecords& file : HandCorpus()) {
    bytes += RenderFile(file, Style::kCompact, &truth).size();
  }
  truth.Finish();
  EXPECT(truth.measurements == 9);
  EXPECT(truth.bytes == bytes);
  // December 25th of 2003 or later: three in 2003, the PRCP of 2014.
  EXPECT((truth.q0_dates ==
          std::vector<std::string>{"2003-12-25T00:00:00",
                                   "2003-12-25T00:00:00",
                                   "2003-12-25T00:00:00",
                                   "2014-12-25T00:00:00"}));
  // TMIN: 2003-12-25 twice, 2002-12-25 once, 2010-06-01 once.
  EXPECT(truth.tmin_records == 4);
  EXPECT((truth.Q1Counts() == std::vector<int64_t>{1, 1, 2}));
  // Pairs: station 7 on 2003-12-25, TMIN {10, 30} x TMAX {50}, gives
  // 40 + 20; station 9 on 2010-06-01, TMIN 0 x TMAX 40, gives 40.
  // 100 over 3 pairs, div 10.
  double q2 = 0;
  EXPECT(truth.Q2Expected(&q2));
  EXPECT(std::fabs(q2 - 100.0 / 3.0 / 10.0) < 1e-12);
}

// The engine's answers over the hand corpus, in both serialisation
// styles, pass every check; altered answers fail them.
void TestChecksAgainstEngine() {
  for (Style style : {Style::kCompact, Style::kSpacedReversed}) {
    Truth truth;
    jpar::Collection coll;
    for (const FileRecords& file : HandCorpus()) {
      coll.files.push_back(
          jpar::JsonFile::FromText(RenderFile(file, style, &truth)));
    }
    truth.Finish();
    jpar::Engine engine;
    engine.catalog()->RegisterCollection("/sensors", coll);
    AnswerChecker checker(truth);
    for (int q = 0; q < kQueryCount; ++q) {
      auto out = engine.Run(kQueries[q].text);
      EXPECT(out.ok());
      if (!out.ok()) continue;
      const std::string verdict =
          checker.Check(static_cast<QueryId>(q), out->items);
      if (!verdict.empty()) std::fprintf(stderr, "%s\n", verdict.c_str());
      EXPECT(verdict.empty());
      EXPECT(checker.CheckScanCounts(static_cast<QueryId>(q), out->stats)
                 .empty());
      EXPECT(CheckStageTimes(out->stats, out->stats.real_ms + 1.0).empty());
    }
  }
  Truth truth;
  for (const FileRecords& file : HandCorpus()) {
    RenderFile(file, Style::kCompact, &truth);
  }
  truth.Finish();
  AnswerChecker checker(truth);
  using jpar::Item;
  const Item d2003 = Item::String("2003-12-25T00:00:00");
  const Item d2014 = Item::String("2014-12-25T00:00:00");
  EXPECT(checker.Check(kQ0b, {d2003, d2003, d2003, d2014}).empty());
  EXPECT(!checker.Check(kQ0b, {d2003, d2003, d2014}).empty());
  EXPECT(!checker.Check(kQ0b, {d2003, d2003, d2003, d2014, d2014}).empty());
  EXPECT(checker.Check(kQ1, {Item::Int64(2), Item::Int64(1), Item::Int64(1)})
             .empty());
  EXPECT(!checker.Check(kQ1, {Item::Int64(2), Item::Int64(2)}).empty());
  EXPECT(!checker.Check(kQ1, {Item::Int64(3), Item::Int64(1)}).empty());
  EXPECT(!checker.Check(kQ2, {Item::Double(3.4)}).empty());
  EXPECT(!checker.Check(kQ2, {}).empty());
}

void TestGeneratorIsSeeded() {
  CorpusSpec spec;
  spec.files = 2;
  spec.records_per_file = 50;
  spec.seed = 11;
  Corpus a = GenerateCorpus(spec);
  Corpus b = GenerateCorpus(spec);
  spec.seed = 12;
  Corpus c = GenerateCorpus(spec);
  EXPECT(a.text == b.text);
  EXPECT(a.text != c.text);
  EXPECT(a.truth.measurements == 2u * 50u * 32u);
  uint64_t bytes = 0;
  for (const std::string& t : a.text) bytes += t.size();
  EXPECT(a.truth.bytes == bytes);
  // Re-rendering the stored records reproduces the text and the truth.
  Truth again;
  for (size_t f = 0; f < a.records.size(); ++f) {
    EXPECT(RenderFile(a.records[f], Style::kCompact, &again) == a.text[f]);
  }
  again.Finish();
  EXPECT(again.q0_dates == a.truth.q0_dates);
  EXPECT(again.Q1Counts() == a.truth.Q1Counts());
}

}  // namespace
}  // namespace perfbench

int main() {
  perfbench::TestRendering();
  perfbench::TestHandTruth();
  perfbench::TestChecksAgainstEngine();
  perfbench::TestGeneratorIsSeeded();
  if (perfbench::failures != 0) {
    std::fprintf(stderr, "perfbench_test: %d check(s) failed\n",
                 perfbench::failures);
    return 1;
  }
  std::printf("perfbench_test: all checks passed\n");
  return 0;
}
