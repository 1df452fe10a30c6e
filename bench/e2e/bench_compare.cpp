// bench_compare: compares two bench_e2e result sets metric by metric.
//
//   bench_compare <parent.jsonl> <change.jsonl> <BENCHMARK.json>
//   bench_compare --self <a.jsonl> <b.jsonl> <BENCHMARK.json>
//   bench_compare --summary <set.jsonl> <BENCHMARK.json>
//
// A result set is the JSON-lines file bench_e2e --out appends to: one record
// per run, tagged with workload and seed. For every workload and every
// end-to-end metric of BENCHMARK.json, the comparison prints each side's
// median and quartiles (Python statistics.quantiles, exclusive method), the
// fraction of seed-paired runs the change wins (ties count for neither), and
// a verdict:
//   regressed   the change's median is worse than the parent's by more than
//               the metric's bound;
//   improved    the change wins >= 9/10 of the pairs and the medians differ,
//               in its favour, by more than the parent's quartile distance;
//   unresolved  fewer than 5 runs a side, or the parent's quartile spread is
//               wider than the bound and not every change run beats every
//               parent run;
//   unchanged   otherwise.
// It exits 1 on any regression. --self compares two sets of one commit and
// also exits 1 on any improvement. --summary prints a set's medians,
// quartiles and spreads as JSON (the committed baseline's format).
#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace {

// ---- a minimal JSON reader ---------------------------------------------------

struct Json {
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };
  Type type = Type::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string str;
  std::vector<Json> items;
  std::vector<std::pair<std::string, Json>> fields;

  const Json* get(const std::string& key) const {
    for (const auto& [k, v] : fields) {
      if (k == key) return &v;
    }
    return nullptr;
  }
  const Json& at(const std::string& key) const {
    const Json* v = get(key);
    if (v == nullptr) throw std::runtime_error("missing key '" + key + "'");
    return *v;
  }
};

class Parser {
 public:
  explicit Parser(const std::string& text) : s_(text) {}

  Json document() {
    Json v = value();
    skip_ws();
    if (pos_ != s_.size()) fail("trailing characters");
    return v;
  }

 private:
  [[noreturn]] void fail(const char* what) const {
    throw std::runtime_error(std::string("JSON: ") + what + " at offset " +
                             std::to_string(pos_));
  }
  void skip_ws() {
    while (pos_ < s_.size() && std::isspace(static_cast<unsigned char>(s_[pos_]))) {
      ++pos_;
    }
  }
  bool eat(char c) {
    skip_ws();
    if (pos_ < s_.size() && s_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }
  void expect(char c) {
    if (!eat(c)) fail("unexpected character");
  }
  bool literal(const char* word) {
    const std::size_t n = std::char_traits<char>::length(word);
    if (s_.compare(pos_, n, word) != 0) return false;
    pos_ += n;
    return true;
  }

  std::string string() {
    expect('"');
    std::string out;
    while (pos_ < s_.size() && s_[pos_] != '"') {
      char c = s_[pos_++];
      if (c == '\\') {
        if (pos_ >= s_.size()) fail("unterminated escape");
        const char e = s_[pos_++];
        switch (e) {
          case 'n': c = '\n'; break;
          case 't': c = '\t'; break;
          case 'r': c = '\r'; break;
          case 'b': c = '\b'; break;
          case 'f': c = '\f'; break;
          case 'u':
            if (pos_ + 4 > s_.size()) fail("short \\u escape");
            pos_ += 4;  // names and units are ASCII; keep a placeholder
            c = '?';
            break;
          default: c = e;
        }
      }
      out += c;
    }
    expect('"');
    return out;
  }

  Json value() {
    skip_ws();
    if (pos_ >= s_.size()) fail("unexpected end");
    Json v;
    const char c = s_[pos_];
    if (c == '{') {
      ++pos_;
      v.type = Json::Type::kObject;
      if (eat('}')) return v;
      do {
        skip_ws();
        std::string key = string();
        expect(':');
        v.fields.emplace_back(std::move(key), value());
      } while (eat(','));
      expect('}');
    } else if (c == '[') {
      ++pos_;
      v.type = Json::Type::kArray;
      if (eat(']')) return v;
      do {
        v.items.push_back(value());
      } while (eat(','));
      expect(']');
    } else if (c == '"') {
      v.type = Json::Type::kString;
      v.str = string();
    } else if (literal("true")) {
      v.type = Json::Type::kBool;
      v.boolean = true;
    } else if (literal("false")) {
      v.type = Json::Type::kBool;
    } else if (literal("null")) {
      v.type = Json::Type::kNull;
    } else {
      const char* begin = s_.c_str() + pos_;
      char* end = nullptr;
      v.type = Json::Type::kNumber;
      v.number = std::strtod(begin, &end);
      if (end == begin) fail("bad value");
      pos_ += static_cast<std::size_t>(end - begin);
    }
    return v;
  }

  const std::string& s_;
  std::size_t pos_ = 0;
};

Json parse_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::stringstream ss;
  ss << in.rdbuf();
  return Parser(ss.str()).document();
}

// ---- result sets -----------------------------------------------------------------

struct MetricSpec {
  std::string name;
  std::string unit;
  bool higher_better = false;
  double bound = 0.0;
};

std::vector<MetricSpec> end_to_end_specs(const Json& benchmark) {
  std::vector<MetricSpec> specs;
  for (const Json& m : benchmark.at("end_to_end").items) {
    specs.push_back({m.at("name").str, m.at("unit").str,
                     m.at("better").str == "higher", m.at("bound").number});
  }
  return specs;
}

struct Sample {
  double seed;
  double value;
};

/// workload -> metric -> samples, for records with the given trace flag.
using ResultSet = std::map<std::string, std::map<std::string, std::vector<Sample>>>;

struct Loaded {
  ResultSet runs;
  std::vector<std::string> order;  ///< workloads in first-seen order
  std::string machine;             ///< first record's machine stanza
};

/// A flat object of strings and numbers (the machine stanza) as JSON.
std::string flat_object_json(const Json& obj) {
  std::string s = "{";
  char num[64];
  for (const auto& [key, v] : obj.fields) {
    std::snprintf(num, sizeof num, "%.17g", v.number);
    s += (s.size() > 1 ? ", \"" : "\"") + key + "\": " +
         (v.type == Json::Type::kString ? "\"" + v.str + "\"" : std::string(num));
  }
  return s + "}";
}

Loaded load_set(const std::string& path, bool traced) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read " + path);
  Loaded set;
  std::string line;
  while (std::getline(in, line)) {
    if (line.find_first_not_of(" \t\r") == std::string::npos) continue;
    const Json rec = Parser(line).document();
    const Json* trace = rec.get("trace");
    if ((trace != nullptr && trace->number != 0.0) != traced) continue;
    if (!rec.at("correct").boolean) {
      throw std::runtime_error(path + ": a run failed its correctness checks");
    }
    const std::string workload = rec.at("workload").str;
    if (set.runs.find(workload) == set.runs.end()) set.order.push_back(workload);
    if (set.machine.empty() && rec.get("machine") != nullptr) {
      set.machine = flat_object_json(rec.at("machine"));
    }
    auto& metrics = set.runs[workload];
    for (const auto& [name, m] : rec.at("metrics").fields) {
      metrics[name].push_back({rec.at("seed").number, m.at("value").number});
    }
  }
  return set;
}

// ---- statistics -----------------------------------------------------------------

struct Summary {
  std::size_t n = 0;
  double median = 0.0;
  double q1 = 0.0;
  double q3 = 0.0;
  /// Quartile distance as a share of the median.
  double spread() const {
    return median != 0.0 ? (q3 - q1) / std::fabs(median) : 0.0;
  }
};

Summary summarize(const std::vector<Sample>& samples) {
  std::vector<double> v;
  for (const Sample& s : samples) v.push_back(s.value);
  std::sort(v.begin(), v.end());
  Summary out;
  out.n = v.size();
  if (v.empty()) return out;
  const std::size_t n = v.size();
  out.median = n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
  if (n == 1) {
    out.q1 = out.q3 = v[0];
    return out;
  }
  // statistics.quantiles(v, n=4), method='exclusive'.
  const auto quartile = [&](std::size_t i) {
    const std::size_t m = n + 1;
    std::size_t j = std::clamp<std::size_t>(i * m / 4, 1, n - 1);
    const double delta = static_cast<double>(i * m) - 4.0 * static_cast<double>(j);
    return (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
  };
  out.q1 = quartile(1);
  out.q3 = quartile(3);
  return out;
}

constexpr std::size_t kMinRuns = 5;

struct Verdict {
  Summary parent;
  Summary change;
  double wins = 0.0;  ///< fraction of decided pairs the change wins
  std::size_t pairs = 0;
  std::string verdict;
};

Verdict judge(const MetricSpec& spec, const std::vector<Sample>& parent,
              const std::vector<Sample>& change) {
  Verdict v;
  v.parent = summarize(parent);
  v.change = summarize(change);
  const auto better = [&](double a, double b) {
    return spec.higher_better ? a > b : a < b;
  };
  // Pair runs by seed; sets without common seeds pair in file order.
  std::vector<std::pair<double, double>> pairs;
  for (const Sample& p : parent) {
    for (const Sample& c : change) {
      if (c.seed == p.seed) {
        pairs.emplace_back(p.value, c.value);
        break;
      }
    }
  }
  if (pairs.empty()) {
    for (std::size_t i = 0; i < std::min(parent.size(), change.size()); ++i) {
      pairs.emplace_back(parent[i].value, change[i].value);
    }
  }
  std::size_t wins = 0;
  for (const auto& [p, c] : pairs) {
    if (p == c) continue;
    ++v.pairs;
    wins += better(c, p) ? 1 : 0;
  }
  v.wins = v.pairs == 0 ? 0.0 : static_cast<double>(wins) / static_cast<double>(v.pairs);

  const double pm = v.parent.median;
  const double worse_by = spec.higher_better ? pm - v.change.median
                                             : v.change.median - pm;
  bool all_better = !parent.empty() && !change.empty();
  for (const Sample& p : parent) {
    for (const Sample& c : change) all_better = all_better && better(c.value, p.value);
  }
  if (v.parent.n < kMinRuns || v.change.n < kMinRuns) {
    v.verdict = "unresolved";
  } else if (worse_by > spec.bound * std::fabs(pm)) {
    v.verdict = "regressed";
  } else if (v.wins >= 0.9 && -worse_by > v.parent.q3 - v.parent.q1) {
    v.verdict = "improved";
  } else if (v.parent.spread() > spec.bound && !all_better) {
    v.verdict = "unresolved";
  } else {
    v.verdict = "unchanged";
  }
  return v;
}

int compare(const std::string& parent_path, const std::string& change_path,
            const std::string& benchmark_path, bool self) {
  const auto specs = end_to_end_specs(parse_file(benchmark_path));
  const Loaded parent = load_set(parent_path, false);
  const Loaded change = load_set(change_path, false);
  std::map<std::string, std::size_t> totals;
  std::printf("%-15s %-17s %-8s %29s %29s %8s %6s  %s\n", "workload", "metric",
              "unit", "parent median [q1, q3]", "change median [q1, q3]",
              "delta", "wins", "verdict");
  for (const std::string& workload : parent.order) {
    const auto cw = change.runs.find(workload);
    if (cw == change.runs.end()) {
      std::printf("%-15s (no runs in the change set)\n", workload.c_str());
      ++totals["unresolved"];
      continue;
    }
    std::map<std::string, std::size_t> row;
    for (const MetricSpec& spec : specs) {
      const auto pm = parent.runs.at(workload).find(spec.name);
      const auto cm = cw->second.find(spec.name);
      if (pm == parent.runs.at(workload).end() || cm == cw->second.end()) {
        std::printf("%-15s %-17s (missing)\n", workload.c_str(), spec.name.c_str());
        ++row["unresolved"];
        continue;
      }
      const Verdict v = judge(spec, pm->second, cm->second);
      const double delta = v.parent.median != 0.0
                               ? 100.0 * (v.change.median - v.parent.median) /
                                     std::fabs(v.parent.median)
                               : 0.0;
      char ps[64], cs[64];
      std::snprintf(ps, sizeof ps, "%.4g [%.4g, %.4g]", v.parent.median,
                    v.parent.q1, v.parent.q3);
      std::snprintf(cs, sizeof cs, "%.4g [%.4g, %.4g]", v.change.median,
                    v.change.q1, v.change.q3);
      std::printf("%-15s %-17s %-8s %29s %29s %+7.2f%% %6.2f  %s\n",
                  workload.c_str(), spec.name.c_str(), spec.unit.c_str(), ps,
                  cs, delta, v.wins, v.verdict.c_str());
      ++row[v.verdict];
    }
    std::printf("%-15s ->", workload.c_str());
    for (const auto& [verdict, n] : row) {
      std::printf(" %zu %s", n, verdict.c_str());
      totals[verdict] += n;
    }
    std::printf("\n");
  }
  const bool bad = totals["regressed"] > 0 || (self && totals["improved"] > 0);
  std::printf("%s: %zu regressed, %zu improved, %zu unchanged, %zu unresolved\n",
              bad ? "FAIL" : "OK", totals["regressed"], totals["improved"],
              totals["unchanged"], totals["unresolved"]);
  return bad ? 1 : 0;
}

void print_block(const ResultSet& runs, const std::vector<std::string>& order,
                 const std::vector<MetricSpec>& specs) {
  for (std::size_t w = 0; w < order.size(); ++w) {
    const auto& metrics = runs.at(order[w]);
    std::printf("    \"%s\": {\"runs\": %zu, \"metrics\": {\n", order[w].c_str(),
                metrics.empty() ? std::size_t{0} : metrics.begin()->second.size());
    std::size_t i = 0;
    for (const auto& [name, samples] : metrics) {
      const Summary s = summarize(samples);
      std::printf("      \"%s\": {\"median\": %.6g, \"q1\": %.6g, \"q3\": %.6g, "
                  "\"spread\": %.4f",
                  name.c_str(), s.median, s.q1, s.q3, s.spread());
      for (const MetricSpec& spec : specs) {
        if (spec.name == name) {
          std::printf(", \"bound\": %g, \"spread_over_bound\": %.3f", spec.bound,
                      s.spread() / spec.bound);
        }
      }
      std::printf("}%s\n", ++i < metrics.size() ? "," : "");
    }
    std::printf("    }}%s\n", w + 1 < order.size() ? "," : "");
  }
}

int summary(const std::string& path, const std::string& benchmark_path) {
  const auto specs = end_to_end_specs(parse_file(benchmark_path));
  const Loaded untraced = load_set(path, false);
  const Loaded traced = load_set(path, true);
  std::printf("{\n  \"machine\": %s,\n  \"end_to_end\": {\n",
              untraced.machine.empty() ? "null" : untraced.machine.c_str());
  print_block(untraced.runs, untraced.order, specs);
  std::printf("  },\n  \"per_layer\": {\n");
  print_block(traced.runs, traced.order, {});
  std::printf("  }\n}\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const std::vector<std::string> args(argv + 1, argv + argc);
  try {
    if (args.size() == 3 && args[0] == "--summary") return summary(args[1], args[2]);
    if (args.size() == 4 && args[0] == "--self") {
      return compare(args[1], args[2], args[3], true);
    }
    if (args.size() == 3) return compare(args[0], args[1], args[2], false);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_compare: %s\n", e.what());
    return 2;
  }
  std::fprintf(stderr,
               "usage: bench_compare [--self] <parent.jsonl> <change.jsonl> "
               "<BENCHMARK.json>\n"
               "       bench_compare --summary <set.jsonl> <BENCHMARK.json>\n");
  return 2;
}
