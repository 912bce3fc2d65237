#include "obs/report.hpp"

#include <algorithm>
#include <iomanip>
#include <numeric>
#include <ostream>
#include <string_view>
#include <unordered_map>

namespace dstage::obs {

namespace {

constexpr std::array<Phase, kPhaseCount> kColumnOrder = {
    Phase::kRead,    Phase::kCompute, Phase::kWrite,    Phase::kCheckpoint,
    Phase::kRestart, Phase::kReplay,  Phase::kDrain,    Phase::kSpill,
    Phase::kResilver, Phase::kOther,
};

double sec(std::int64_t ns) { return static_cast<double>(ns) * 1e-9; }

struct SweepEvent {
  std::int64_t ts = 0;
  bool is_begin = false;
  const Span* span = nullptr;
};

TrackBreakdown breakdown_track(const std::string& track,
                               const std::vector<const Span*>& spans) {
  TrackBreakdown out;
  out.track = track;

  std::vector<SweepEvent> events;
  events.reserve(spans.size() * 2);
  for (const Span* s : spans) {
    if (s->end.ns <= s->start.ns) continue;  // zero width: nothing to charge
    events.push_back(SweepEvent{s->start.ns, true, s});
    events.push_back(SweepEvent{s->end.ns, false, s});
  }
  if (events.empty()) return out;

  // Ends before begins at equal timestamps; among simultaneous begins the
  // parent (smaller id) opens first, among simultaneous ends the innermost
  // (larger id) closes first.
  std::sort(events.begin(), events.end(),
            [](const SweepEvent& a, const SweepEvent& b) {
              if (a.ts != b.ts) return a.ts < b.ts;
              if (a.is_begin != b.is_begin) return !a.is_begin;
              if (a.is_begin) return a.span->id < b.span->id;
              return a.span->id > b.span->id;
            });

  std::vector<const Span*> stack;
  std::int64_t prev = events.front().ts;
  const std::int64_t first = events.front().ts;
  std::int64_t last = first;
  for (const SweepEvent& ev : events) {
    const std::int64_t dt = ev.ts - prev;
    if (dt > 0) {
      const Phase p = stack.empty() ? Phase::kOther : stack.back()->phase;
      out.phase_ns[static_cast<std::size_t>(p)] += dt;
    }
    prev = ev.ts;
    last = std::max(last, ev.ts);
    if (ev.is_begin) {
      stack.push_back(ev.span);
    } else {
      // Proper nesting means the span is on top; search defensively so a
      // malformed stream degrades instead of corrupting the stack.
      for (auto it = stack.rbegin(); it != stack.rend(); ++it) {
        if (*it == ev.span) {
          stack.erase(std::next(it).base());
          break;
        }
      }
    }
  }
  out.total_ns = last - first;
  return out;
}

std::int64_t chain_ns(const PathNode& n) {
  std::int64_t best = 0;
  for (const PathNode& c : n.children) best = std::max(best, chain_ns(c));
  return n.span->duration().ns + best;
}

void mark_critical(PathNode& n) {
  n.on_critical_path = true;
  PathNode* best = nullptr;
  std::int64_t best_ns = -1;
  for (PathNode& c : n.children) {
    const std::int64_t v = chain_ns(c);
    if (v > best_ns) {
      best_ns = v;
      best = &c;
    }
  }
  if (best != nullptr) mark_critical(*best);
}

PathNode build_node(const SpanTracer& tracer, const Span* s) {
  PathNode n;
  n.span = s;
  for (const Span* c : tracer.children_of(s->id)) {
    n.children.push_back(build_node(tracer, c));
  }
  return n;
}

void print_node(std::ostream& os, const PathNode& n, const std::string& prefix,
                bool last) {
  os << prefix << (last ? "└─ " : "├─ ") << n.span->name << "  "
     << std::fixed << std::setprecision(6) << n.span->duration().seconds()
     << "s" << (n.on_critical_path ? "  *" : "") << "\n";
  const std::string child_prefix = prefix + (last ? "   " : "│  ");
  for (std::size_t i = 0; i < n.children.size(); ++i) {
    print_node(os, n.children[i], child_prefix, i + 1 == n.children.size());
  }
}

void collect_critical(const PathNode& n, std::vector<std::string>& names) {
  for (const PathNode& c : n.children) {
    if (c.on_critical_path) {
      names.push_back(c.span->name);
      collect_critical(c, names);
    }
  }
}

}  // namespace

std::int64_t TrackBreakdown::attributed_ns() const {
  return std::accumulate(phase_ns.begin(), phase_ns.end(),
                         static_cast<std::int64_t>(0));
}

Breakdown phase_breakdown(const SpanTracer& tracer) {
  // One pass buckets spans by track in first-appearance order (the order
  // tracks() reports; instant-only tracks have nothing to attribute).
  std::unordered_map<std::string_view, std::size_t> bucket_of;
  std::vector<std::vector<const Span*>> buckets;
  Breakdown out;
  for (const Span& s : tracer.spans()) {
    const auto [it, fresh] = bucket_of.try_emplace(s.track, buckets.size());
    if (fresh) buckets.emplace_back();
    buckets[it->second].push_back(&s);
    out.span_horizon_ns = std::max(out.span_horizon_ns, s.end.ns);
  }
  out.tracks.reserve(buckets.size());
  for (const std::vector<const Span*>& spans : buckets) {
    out.tracks.push_back(breakdown_track(spans.front()->track, spans));
  }
  return out;
}

void print_breakdown(std::ostream& os, const Breakdown& b) {
  const int name_w = 18;
  const int col_w = 11;
  os << std::left << std::setw(name_w) << "track" << std::right;
  for (Phase p : kColumnOrder) os << std::setw(col_w) << phase_name(p);
  os << std::setw(col_w) << "total" << "\n";

  std::array<std::int64_t, kPhaseCount> sum{};
  std::int64_t sum_total = 0;
  auto row = [&](const std::string& name,
                 const std::array<std::int64_t, kPhaseCount>& phases,
                 std::int64_t total) {
    os << std::left << std::setw(name_w) << name << std::right << std::fixed
       << std::setprecision(3);
    for (Phase p : kColumnOrder) {
      os << std::setw(col_w) << sec(phases[static_cast<std::size_t>(p)]);
    }
    os << std::setw(col_w) << sec(total) << "\n";
  };
  for (const TrackBreakdown& t : b.tracks) {
    row(t.track, t.phase_ns, t.total_ns);
    for (std::size_t i = 0; i < kPhaseCount; ++i) sum[i] += t.phase_ns[i];
    sum_total += t.total_ns;
  }
  row("TOTAL", sum, sum_total);
  os << std::fixed << std::setprecision(3)
     << "span horizon (virtual time): " << sec(b.span_horizon_ns) << "s\n";
}

Json breakdown_to_json(const Breakdown& b) {
  Json doc = Json::object();
  doc.set("span_horizon_s", sec(b.span_horizon_ns));
  Json tracks = Json::array();
  for (const TrackBreakdown& t : b.tracks) {
    Json row = Json::object();
    row.set("track", t.track);
    for (Phase p : kColumnOrder) {
      row.set(std::string(phase_name(p)) + "_s",
              sec(t.phase_ns[static_cast<std::size_t>(p)]));
    }
    row.set("total_s", sec(t.total_ns));
    tracks.push(std::move(row));
  }
  doc.set("tracks", std::move(tracks));
  return doc;
}

std::vector<PathNode> recovery_paths(const SpanTracer& tracer) {
  std::vector<PathNode> out;
  for (const Span& s : tracer.spans()) {
    if (s.parent == 0 && s.name == "recovery") {
      out.push_back(build_node(tracer, &s));
      mark_critical(out.back());
    }
  }
  return out;
}

void print_recovery_tree(std::ostream& os, const PathNode& root) {
  std::vector<std::string> critical;
  collect_critical(root, critical);
  os << root.span->name << " [" << root.span->track << "]  " << std::fixed
     << std::setprecision(6) << root.span->duration().seconds() << "s";
  if (!critical.empty()) {
    os << "  (critical path: ";
    for (std::size_t i = 0; i < critical.size(); ++i) {
      if (i != 0) os << " -> ";
      os << critical[i];
    }
    os << ")";
  }
  os << "\n";
  for (std::size_t i = 0; i < root.children.size(); ++i) {
    print_node(os, root.children[i], "  ", i + 1 == root.children.size());
  }
}

}  // namespace dstage::obs
