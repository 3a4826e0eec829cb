#include "corpus.h"

#include <algorithm>
#include <cstdio>

namespace perfbench {

namespace {

// splitmix64: fixed across platforms and standard libraries, unlike
// <random> distributions.
uint64_t Mix(uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  int Below(int bound) {
    state_ = Mix(state_);
    return static_cast<int>(state_ % static_cast<uint64_t>(bound));
  }

 private:
  uint64_t state_;
};

int DaysInMonth(int month) {
  static const int kDays[] = {31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31};
  return kDays[month - 1];
}

// Percent of measurements per type, in DataType order.
constexpr int kTypeWeight[kTypeCount] = {30, 30, 20, 12, 8};

DataType PickType(Rng* rng) {
  int roll = rng->Below(100);
  for (int t = 0; t < kTypeCount; ++t) {
    if (roll < kTypeWeight[t]) return static_cast<DataType>(t);
    roll -= kTypeWeight[t];
  }
  return kAwnd;
}

int32_t PickValue(Rng* rng, DataType type) {
  switch (type) {
    case kTmin:
      return -300 + rng->Below(450);
    case kTmax:
      return -150 + rng->Below(500);
    case kPrcp:
      return rng->Below(800);
    case kSnow:
      return rng->Below(300);
    default:
      return rng->Below(200);
  }
}

void AppendMeasurement(const Measurement& m, bool spaced, std::string* out) {
  char buf[160];
  const char* sep = spaced ? " " : "";
  int y = m.date / 10000;
  int mo = m.date / 100 % 100;
  int d = m.date % 100;
  int n = std::snprintf(
      buf, sizeof(buf),
      "{\"date\":%s\"%04d-%02d-%02dT00:00:00\",%s\"dataType\":%s\"%s\",%s"
      "\"station\":%s\"GHCND:USW%08d\",%s\"value\":%s%d}",
      sep, y, mo, d, sep, sep, DataTypeName(m.type), sep, sep,
      static_cast<int>(m.station), sep, sep, static_cast<int>(m.value));
  out->append(buf, static_cast<size_t>(n));
}

void AppendRecord(const Record& record, bool spaced, Truth* truth,
                  std::string* out) {
  const char* sep = spaced ? " " : "";
  out->append("{\"metadata\":");
  out->append(sep);
  out->append("{\"count\":");
  out->append(sep);
  out->append(std::to_string(record.results.size()));
  out->append("},");
  out->append(sep);
  out->append("\"results\":");
  out->append(sep);
  out->push_back('[');
  for (size_t i = 0; i < record.results.size(); ++i) {
    if (i > 0) {
      out->push_back(',');
      out->append(sep);
    }
    AppendMeasurement(record.results[i], spaced, out);
    if (truth != nullptr) truth->Record(record.results[i]);
  }
  out->append("]}");
}

}  // namespace

const char* DataTypeName(DataType type) {
  static const char* kNames[kTypeCount] = {"TMIN", "TMAX", "PRCP", "SNOW",
                                           "AWND"};
  return kNames[type];
}

std::string DateString(int32_t yyyymmdd) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%04d-%02d-%02dT00:00:00",
                static_cast<int>(yyyymmdd / 10000),
                static_cast<int>(yyyymmdd / 100 % 100),
                static_cast<int>(yyyymmdd % 100));
  return buf;
}

void Truth::Record(const Measurement& m) {
  ++measurements;
  int year = m.date / 10000;
  int month = m.date / 100 % 100;
  int day = m.date % 100;
  if (year >= 2003 && month == 12 && day == 25) {
    q0_dates.push_back(DateString(m.date));
  }
  if (m.type == kTmin) {
    ++tmin_records;
    ++q1_tmin_per_date[DateString(m.date)];
  }
  if (m.type == kTmin || m.type == kTmax) {
    PairSums& sums = q2_sums[{m.station, m.date}];
    if (m.type == kTmin) {
      ++sums.tmin_count;
      sums.tmin_sum += m.value;
    } else {
      ++sums.tmax_count;
      sums.tmax_sum += m.value;
    }
  }
}

void Truth::Finish() { std::sort(q0_dates.begin(), q0_dates.end()); }

bool Truth::Q2Expected(double* out) const {
  int64_t diff_sum = 0;
  int64_t pairs = 0;
  for (const auto& [key, s] : q2_sums) {
    diff_sum += s.tmin_count * s.tmax_sum - s.tmax_count * s.tmin_sum;
    pairs += s.tmin_count * s.tmax_count;
  }
  if (pairs == 0) return false;
  *out = static_cast<double>(diff_sum) / static_cast<double>(pairs) / 10.0;
  return true;
}

std::vector<int64_t> Truth::Q1Counts() const {
  std::vector<int64_t> counts;
  counts.reserve(q1_tmin_per_date.size());
  for (const auto& [date, n] : q1_tmin_per_date) counts.push_back(n);
  std::sort(counts.begin(), counts.end());
  return counts;
}

std::string RenderFile(const FileRecords& records, Style style,
                       Truth* truth) {
  const bool spaced = style == Style::kSpacedReversed;
  std::string out;
  out.reserve(records.size() *
              (records.empty() ? 0 : records[0].results.size() * 112 + 48));
  out.append(spaced ? "{\"root\": [\n" : "{\"root\":[");
  for (size_t i = 0; i < records.size(); ++i) {
    if (i > 0) out.append(spaced ? ",\n" : ",");
    const Record& r = spaced ? records[records.size() - 1 - i] : records[i];
    AppendRecord(r, spaced, truth, &out);
  }
  out.append(spaced ? "\n]}\n" : "]}");
  if (truth != nullptr) truth->bytes += out.size();
  return out;
}

Corpus GenerateCorpus(const CorpusSpec& spec) {
  Corpus corpus;
  const int years = spec.last_year - spec.first_year + 1;
  for (int f = 0; f < spec.files; ++f) {
    Rng rng(Mix(spec.seed) ^ Mix(static_cast<uint64_t>(f) + 1));
    FileRecords records(static_cast<size_t>(spec.records_per_file));
    for (Record& record : records) {
      const int32_t station = rng.Below(spec.stations);
      const int year = spec.first_year + rng.Below(years);
      const int month = 1 + rng.Below(12);
      record.results.resize(static_cast<size_t>(spec.measurements_per_array));
      for (Measurement& m : record.results) {
        m.station = station;
        m.date = year * 10000 + month * 100 + 1 + rng.Below(DaysInMonth(month));
        m.type = PickType(&rng);
        m.value = PickValue(&rng, m.type);
      }
    }
    corpus.text.push_back(RenderFile(records, Style::kCompact, &corpus.truth));
    corpus.records.push_back(std::move(records));
  }
  corpus.truth.Finish();
  return corpus;
}

}  // namespace perfbench
