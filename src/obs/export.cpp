#include "obs/export.h"

#include <cmath>
#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <vector>

#include "util/json.h"
#include "util/logging.h"

namespace hotspot::obs {
namespace {

using util::json_number;

// Microseconds with nanosecond resolution for Chrome trace "ts"/"dur".
std::string format_micros(std::uint64_t nanos) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.3f",
                static_cast<double>(nanos) / 1e3);
  return buffer;
}

// Prometheus label values allow anything, but `\`, `"`, and newlines must
// be escaped in the exposition format.
std::string prometheus_label_value(const std::string& text) {
  std::string escaped;
  escaped.reserve(text.size());
  for (const char c : text) {
    if (c == '\\' || c == '"') {
      escaped += '\\';
      escaped += c;
    } else if (c == '\n') {
      escaped += "\\n";
    } else {
      escaped += c;
    }
  }
  return escaped;
}

// Prometheus metric names allow [a-zA-Z0-9_:]; dots and dashes in our
// registry names map to underscores. Sanitization alone can merge distinct
// source names ("scan.batch_seconds" vs "scan-batch_seconds"), so families
// are allocated through PrometheusNames, which appends "_2", "_3", ... to
// later claimants. Allocation order is the (deterministic) name-sorted
// export order, so the renaming is stable run over run.
std::string prometheus_sanitize(const std::string& name) {
  std::string sanitized = name;
  for (char& c : sanitized) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == ':';
    if (!ok) {
      c = '_';
    }
  }
  if (sanitized.empty() || (sanitized[0] >= '0' && sanitized[0] <= '9')) {
    sanitized.insert(sanitized.begin(), '_');
  }
  return sanitized;
}

class PrometheusNames {
 public:
  // Claims a family name for `source`. `derived` are suffixes the family
  // will emit as separate series names (histogram "_bucket"/"_sum"/...);
  // they are reserved too so e.g. a counter named "x_sum" and a histogram
  // named "x" never collide.
  std::string allocate(const std::string& source,
                       const std::vector<std::string>& derived = {}) {
    const std::string base = prometheus_sanitize(source);
    std::string candidate = base;
    for (int suffix = 2;; ++suffix) {
      if (claim(candidate, derived)) {
        return candidate;
      }
      candidate = base + "_" + std::to_string(suffix);
    }
  }

 private:
  bool claim(const std::string& candidate,
             const std::vector<std::string>& derived) {
    if (used_.count(candidate) > 0) {
      return false;
    }
    for (const std::string& suffix : derived) {
      if (used_.count(candidate + suffix) > 0) {
        return false;
      }
    }
    used_.insert(candidate);
    for (const std::string& suffix : derived) {
      used_.insert(candidate + suffix);
    }
    return true;
  }

  std::set<std::string> used_;
};

const std::vector<std::string>& histogram_suffixes() {
  static const std::vector<std::string> suffixes = {
      "_bucket", "_sum", "_count", "_p50", "_p95", "_p99"};
  return suffixes;
}

void append_json_body(std::ostringstream& out,
                      const MetricsSnapshot& snapshot,
                      const SpanReport& spans) {
  out << "\"counters\": {";
  for (std::size_t i = 0; i < snapshot.counters.size(); ++i) {
    const CounterSample& sample = snapshot.counters[i];
    out << (i > 0 ? ", " : "") << "\"" << util::json_escape(sample.name)
        << "\": " << sample.value;
  }
  out << "}, \"gauges\": {";
  for (std::size_t i = 0; i < snapshot.gauges.size(); ++i) {
    const GaugeSample& sample = snapshot.gauges[i];
    out << (i > 0 ? ", " : "") << "\"" << util::json_escape(sample.name)
        << "\": " << json_number(sample.value);
  }
  out << "}, \"histograms\": {";
  for (std::size_t i = 0; i < snapshot.histograms.size(); ++i) {
    const HistogramSample& sample = snapshot.histograms[i];
    out << (i > 0 ? ", " : "") << "\"" << util::json_escape(sample.name)
        << "\": {\"bounds\": [";
    for (std::size_t b = 0; b < sample.bounds.size(); ++b) {
      out << (b > 0 ? ", " : "") << json_number(sample.bounds[b]);
    }
    out << "], \"buckets\": [";
    for (std::size_t b = 0; b < sample.buckets.size(); ++b) {
      out << (b > 0 ? ", " : "") << sample.buckets[b];
    }
    out << "], \"count\": " << sample.count
        << ", \"sum\": " << json_number(sample.sum)
        << ", \"p50\": " << json_number(sample.quantile(0.50))
        << ", \"p95\": " << json_number(sample.quantile(0.95))
        << ", \"p99\": " << json_number(sample.quantile(0.99)) << "}";
  }
  out << "}, \"spans\": {";
  for (std::size_t i = 0; i < spans.spans.size(); ++i) {
    const auto& [name, stat] = spans.spans[i];
    out << (i > 0 ? ", " : "") << "\"" << util::json_escape(name)
        << "\": {\"count\": " << stat.count
        << ", \"total_seconds\": " << json_number(stat.total_seconds)
        << ", \"self_seconds\": " << json_number(stat.self_seconds) << "}";
  }
  out << "}";
}

}  // namespace

std::string to_json(const MetricsSnapshot& snapshot, const SpanReport& spans) {
  std::ostringstream out;
  out << "{";
  append_json_body(out, snapshot, spans);
  out << "}";
  return out.str();
}

std::string to_json(const MetricsSnapshot& snapshot, const SpanReport& spans,
                    const RunManifest& manifest) {
  std::ostringstream out;
  out << "{\"manifest\": " << manifest_json(manifest) << ", ";
  append_json_body(out, snapshot, spans);
  out << "}";
  return out.str();
}

std::string to_prometheus(const MetricsSnapshot& snapshot,
                          const SpanReport& spans) {
  std::ostringstream out;
  PrometheusNames names;
  for (const CounterSample& sample : snapshot.counters) {
    const std::string name = names.allocate(sample.name);
    out << "# TYPE " << name << " counter\n"
        << name << " " << sample.value << "\n";
  }
  for (const GaugeSample& sample : snapshot.gauges) {
    const std::string name = names.allocate(sample.name);
    out << "# TYPE " << name << " gauge\n"
        << name << " " << json_number(sample.value) << "\n";
  }
  for (const HistogramSample& sample : snapshot.histograms) {
    const std::string name = names.allocate(sample.name, histogram_suffixes());
    out << "# TYPE " << name << " histogram\n";
    std::uint64_t cumulative = 0;
    for (std::size_t b = 0; b < sample.bounds.size(); ++b) {
      cumulative += sample.buckets[b];
      out << name << "_bucket{le=\"" << json_number(sample.bounds[b])
          << "\"} " << cumulative << "\n";
    }
    out << name << "_bucket{le=\"+Inf\"} " << sample.count << "\n"
        << name << "_sum " << json_number(sample.sum) << "\n"
        << name << "_count " << sample.count << "\n";
    out << "# TYPE " << name << "_p50 gauge\n"
        << name << "_p50 " << json_number(sample.quantile(0.50)) << "\n"
        << "# TYPE " << name << "_p95 gauge\n"
        << name << "_p95 " << json_number(sample.quantile(0.95)) << "\n"
        << "# TYPE " << name << "_p99 gauge\n"
        << name << "_p99 " << json_number(sample.quantile(0.99)) << "\n";
  }
  if (!spans.spans.empty()) {
    out << "# TYPE hotspot_span_seconds gauge\n";
    for (const auto& [name, stat] : spans.spans) {
      out << "hotspot_span_seconds{span=\"" << prometheus_label_value(name)
          << "\"} " << json_number(stat.total_seconds) << "\n";
    }
    out << "# TYPE hotspot_span_self_seconds gauge\n";
    for (const auto& [name, stat] : spans.spans) {
      out << "hotspot_span_self_seconds{span=\""
          << prometheus_label_value(name) << "\"} "
          << json_number(stat.self_seconds) << "\n";
    }
    out << "# TYPE hotspot_span_count gauge\n";
    for (const auto& [name, stat] : spans.spans) {
      out << "hotspot_span_count{span=\"" << prometheus_label_value(name)
          << "\"} " << stat.count << "\n";
    }
  }
  return out.str();
}

namespace {

// Emits the span-timeline rows shared by both to_chrome_trace overloads.
// Returns whether the next emitter still writes the first array element.
bool append_timeline_rows(std::ostringstream& out,
                          const TimelineReport& report, bool first) {
  // Thread-name metadata rows so the viewer labels each track.
  for (std::size_t t = 0; t < report.thread_count; ++t) {
    out << (first ? "" : ", ")
        << "{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 1, \"tid\": "
        << t << ", \"args\": {\"name\": \"hotspot thread " << t << "\"}}";
    first = false;
  }
  for (const TimelineEvent& event : report.events) {
    out << (first ? "" : ", ") << "{\"name\": \""
        << util::json_escape(event.name)
        << "\", \"cat\": \"hotspot\", \"ph\": \"X\", \"ts\": "
        << format_micros(event.start_ns)
        << ", \"dur\": " << format_micros(event.duration_ns)
        << ", \"pid\": 1, \"tid\": " << event.thread_index << "}";
    first = false;
  }
  return first;
}

}  // namespace

std::string to_chrome_trace(const TimelineReport& report) {
  std::ostringstream out;
  out << "{\"displayTimeUnit\": \"ms\", \"otherData\": {\"dropped_events\": "
      << report.dropped << "}, \"traceEvents\": [";
  append_timeline_rows(out, report, true);
  out << "]}";
  return out.str();
}

std::string to_chrome_trace(const TimelineReport& report,
                            const std::vector<RequestTrace>& requests) {
  std::ostringstream out;
  out << "{\"displayTimeUnit\": \"ms\", \"otherData\": {\"dropped_events\": "
      << report.dropped << "}, \"traceEvents\": [";
  bool first = append_timeline_rows(out, report, true);
  if (!requests.empty()) {
    out << (first ? "" : ", ")
        << "{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 2, "
           "\"args\": {\"name\": \"serve requests\"}}";
    first = false;
  }
  for (const RequestTrace& request : requests) {
    // Bounded lane count: many concurrent requests share 32 tracks instead
    // of opening one per request id; the flow arrows keep each request's
    // phases connected regardless of which lane they render on.
    const std::uint64_t lane = request.request_id % 32;
    struct Phase {
      const char* name;
      double seconds;
    };
    const Phase phases[] = {{"req.decode", request.decode_seconds},
                            {"req.queue", request.queue_seconds},
                            {"req.batch", request.batch_seconds},
                            {"req.infer", request.infer_seconds},
                            {"req.encode", request.encode_seconds}};
    std::uint64_t cursor_ns = request.start_ns;
    for (std::size_t p = 0; p < 5; ++p) {
      const double seconds =
          std::isfinite(phases[p].seconds) && phases[p].seconds > 0.0
              ? phases[p].seconds
              : 0.0;
      const auto duration_ns = static_cast<std::uint64_t>(seconds * 1e9);
      out << (first ? "" : ", ") << "{\"name\": \"" << phases[p].name
          << "\", \"cat\": \"serve\", \"ph\": \"X\", \"ts\": "
          << format_micros(cursor_ns)
          << ", \"dur\": " << format_micros(duration_ns)
          << ", \"pid\": 2, \"tid\": " << lane;
      if (p == 0) {
        out << ", \"args\": {\"request_id\": " << request.request_id
            << ", \"tenant\": \"" << util::json_escape(request.tenant)
            << "\", \"clips\": " << request.clips << ", \"outcome\": \""
            << request_outcome_name(request.outcome)
            << "\", \"model_version\": " << request.model_version << "}";
      }
      out << "}";
      first = false;
      // Flow arrows chain the phases: start on decode, finish on encode.
      const char* flow_ph = p == 0 ? "s" : (p == 4 ? "f" : "t");
      out << ", {\"name\": \"req\", \"cat\": \"serve\", \"ph\": \"" << flow_ph
          << "\", \"id\": " << request.request_id
          << ", \"ts\": " << format_micros(cursor_ns)
          << ", \"pid\": 2, \"tid\": " << lane;
      if (p == 4) {
        out << ", \"bp\": \"e\"";
      }
      out << "}";
      cursor_ns += duration_ns;
    }
  }
  out << "]}";
  return out.str();
}

namespace {

bool write_text_file(const std::string& path, const std::string& text,
                     const char* what) {
  std::ofstream out(path, std::ios::binary);
  if (!out) {
    HOTSPOT_LOG(kError) << "cannot open " << path << " for " << what
                        << " export";
    return false;
  }
  out << text << "\n";
  out.flush();
  if (!out.good()) {
    HOTSPOT_LOG(kError) << "short write exporting " << what << " to " << path;
    return false;
  }
  return true;
}

}  // namespace

bool write_metrics_json(const std::string& path,
                        const MetricsSnapshot& snapshot,
                        const SpanReport& spans, const RunManifest* manifest) {
  const std::string text = manifest != nullptr
                               ? to_json(snapshot, spans, *manifest)
                               : to_json(snapshot, spans);
  return write_text_file(path, text, "metrics");
}

bool write_chrome_trace(const std::string& path,
                        const TimelineReport& report) {
  return write_text_file(path, to_chrome_trace(report), "trace");
}

}  // namespace hotspot::obs
