#include "common.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <fstream>
#include <map>
#include <stdexcept>

namespace perfbench {

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t index) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (index + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

void OpLog::begin_op() {
  reset_heap_peak();
  start_ = Clock::now();
}

double OpLog::end_op() {
  const double dt = seconds_since(start_);
  op_s_.push_back(dt);
  peak_heap_mb_.push_back(static_cast<double>(heap_peak_bytes()) / (1024.0 * 1024.0));
  return dt;
}

void OpLog::bound_ratio(double err, double bound) {
  ++checked_;
  if (bound > 0.0) err_to_bound_max_ = std::max(err_to_bound_max_, err / bound);
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t h = v.size() / 2;
  return v.size() % 2 ? v[h] : 0.5 * (v[h - 1] + v[h]);
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(q * static_cast<double>(v.size()));
  const std::size_t i = rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return v[std::min(i, v.size() - 1)];
}

void closed_loop(const RunConfig& cfg, std::size_t min_ops,
                 const std::function<double(std::size_t)>& one_op) {
  const Clock::time_point start = Clock::now();
  double busy = 0.0;
  for (std::size_t i = 0;; ++i) {
    if (busy >= cfg.seconds && i >= min_ops) break;
    if (i > 0 && seconds_since(start) >= kWallCap) break;
    busy += one_op(i);
  }
}

Tracer::Scope::Scope(Tracer& tracer, std::string name) : tracer_(tracer) {
  Span s;
  s.name = std::move(name);
  s.parent = tracer_.open_;
  s.op = tracer_.op_;
  id_ = static_cast<int>(tracer_.spans_.size());
  tracer_.spans_.push_back(std::move(s));
  tracer_.open_ = id_;
  // Stamp last, so the bookkeeping above stays outside the span.
  tracer_.spans_[static_cast<std::size_t>(id_)].begin = tracer_.now();
}

Tracer::Scope::~Scope() {
  Span& s = tracer_.spans_[static_cast<std::size_t>(id_)];
  s.end = tracer_.now();
  tracer_.open_ = s.parent;
}

double Tracer::Scope::elapsed() const {
  return tracer_.now() - tracer_.spans_[static_cast<std::size_t>(id_)].begin;
}

double Tracer::total(const std::string& name) const {
  double t = 0.0;
  for (const Span& s : spans_)
    if (s.name == name) t += s.end - s.begin;
  return t;
}

std::vector<double> Tracer::durations(const std::string& name) const {
  std::vector<double> out;
  for (const Span& s : spans_)
    if (s.name == name) out.push_back(s.end - s.begin);
  return out;
}

std::size_t Tracer::count_prefix(const std::string& prefix) const {
  std::size_t n = 0;
  for (const Span& s : spans_)
    if (s.name.compare(0, prefix.size(), prefix) == 0) ++n;
  return n;
}

double Tracer::coverage(const std::string& parent) const {
  double wall = 0.0, covered = 0.0;
  for (const Span& s : spans_) {
    if (s.name == parent) wall += s.end - s.begin;
    if (s.parent >= 0 && spans_[static_cast<std::size_t>(s.parent)].name == parent)
      covered += s.end - s.begin;
  }
  return wall > 0.0 ? covered / wall : 0.0;
}

void Tracer::write_trace_events(const std::string& path) const {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("perfbench: cannot write " + path);
  out << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << "  {\"name\": " << json_string(s.name) << ", \"ph\": \"X\", \"pid\": 1, \"tid\": 1"
        << ", \"ts\": " << json_number(s.begin * 1e6)
        << ", \"dur\": " << json_number((s.end - s.begin) * 1e6) << ", \"args\": {\"op\": " << s.op
        << ", \"id\": " << i << ", \"parent\": " << s.parent << "}}"
        << (i + 1 < spans_.size() ? ",\n" : "\n");
  }
  out << "]}\n";
}

std::string Tracer::layer_table_json() const {
  struct Row {
    std::size_t count = 0;
    double total = 0.0, self = 0.0;
  };
  std::vector<double> child(spans_.size(), 0.0);
  for (const Span& s : spans_)
    if (s.parent >= 0) child[static_cast<std::size_t>(s.parent)] += s.end - s.begin;
  std::map<std::string, Row> rows;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    Row& r = rows[spans_[i].name];
    const double d = spans_[i].end - spans_[i].begin;
    ++r.count;
    r.total += d;
    r.self += d - child[i];
  }
  std::string out = "{";
  bool first = true;
  for (const auto& [name, r] : rows) {
    out += (first ? "\n    " : ",\n    ") + json_string(name) + ": {\"count\": " +
           std::to_string(r.count) + ", \"total_s\": " + json_number(r.total) +
           ", \"self_s\": " + json_number(r.self) + "}";
    first = false;
  }
  return out + "\n  }";
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[40];
  const auto r = std::to_chars(buf, buf + sizeof buf, v);  // shortest round-trip form
  return std::string(buf, r.ptr);
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

}  // namespace perfbench
