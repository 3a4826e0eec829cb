#ifndef PERFBENCH_CORPUS_H_
#define PERFBENCH_CORPUS_H_

// The benchmark's own GHCN-Daily-shaped corpus (the paper's Listing 6)
// and the ground truth for the five paper queries, recorded while the
// corpus is written. Nothing here parses JSON: the truth comes from the
// generated values themselves, so checking an engine answer against it
// never trusts the engine's own reader.
//
//   {"root":[{"metadata":{"count":32},
//             "results":[{"date":"2013-12-25T00:00:00","dataType":"TMIN",
//                         "station":"GHCND:USW00000042","value":-12}, ...]},
//            ...]}

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

enum DataType : uint8_t { kTmin = 0, kTmax, kPrcp, kSnow, kAwnd, kTypeCount };
const char* DataTypeName(DataType type);

/// One element of a "results" array.
struct Measurement {
  int32_t date = 0;  // yyyymmdd
  DataType type = kTmin;
  int32_t station = 0;
  int32_t value = 0;
};

/// One element of "root": a station's measurements within one month.
struct Record {
  std::vector<Measurement> results;
};

using FileRecords = std::vector<Record>;

/// Corpus make-up. The same spec and seed give the same bytes.
struct CorpusSpec {
  int files = 8;
  int records_per_file = 1000;
  int measurements_per_array = 32;
  int stations = 400;
  int first_year = 2000;
  int last_year = 2014;
  uint64_t seed = 1;
};

/// How a file's records are serialised. Every style holds the same
/// records, so every style has the same truth.
enum class Style : uint8_t {
  kCompact,         // no whitespace, generation order
  kSpacedReversed,  // a space after ',' and ':', a newline per record,
                    // records in reverse order
};

/// Ground truth for the paper's queries over one corpus.
struct Truth {
  struct PairSums {
    int64_t tmin_count = 0;
    int64_t tmax_count = 0;
    int64_t tmin_sum = 0;
    int64_t tmax_sum = 0;
  };

  uint64_t measurements = 0;  // measurement records written
  uint64_t bytes = 0;         // corpus bytes written (compact style)
  uint64_t tmin_records = 0;
  /// Q0/Q0b: the date of every qualifying measurement (year >= 2003,
  /// December 25th), sorted; a multiset.
  std::vector<std::string> q0_dates;
  /// Q1/Q1b: TMIN measurements per date string.
  std::map<std::string, int64_t> q1_tmin_per_date;
  /// Q2: integer TMIN/TMAX counts and sums per (station, date).
  std::map<std::pair<int32_t, int32_t>, PairSums> q2_sums;

  /// Adds one written measurement.
  void Record(const Measurement& m);
  /// Sorts q0_dates; call once every measurement is recorded.
  void Finish();

  /// Q2's answer, avg(TMAX - TMIN over joined pairs) div 10, from the
  /// integer sums: sum over (station, date) of
  /// (tmin_count * tmax_sum - tmax_count * tmin_sum), divided by
  /// sum of tmin_count * tmax_count. False when no pair joins.
  bool Q2Expected(double* out) const;
  /// The counts Q1/Q1b return (one per date), sorted.
  std::vector<int64_t> Q1Counts() const;
};

struct Corpus {
  std::vector<FileRecords> records;  // per file
  std::vector<std::string> text;     // per file, compact style
  Truth truth;
};

/// "YYYY-MM-DDT00:00:00".
std::string DateString(int32_t yyyymmdd);

/// Serialises one file's records; `truth`, when non-null, records every
/// measurement as it is written.
std::string RenderFile(const FileRecords& records, Style style,
                       Truth* truth = nullptr);

/// Generates the corpus and records its truth in one pass.
Corpus GenerateCorpus(const CorpusSpec& spec);

}  // namespace perfbench

#endif  // PERFBENCH_CORPUS_H_
