#include "obs/span.hpp"

#include <algorithm>
#include <string_view>
#include <unordered_set>
#include <utility>

namespace dstage::obs {

const char* phase_name(Phase p) {
  switch (p) {
    case Phase::kOther:
      return "other";
    case Phase::kRead:
      return "read";
    case Phase::kCompute:
      return "compute";
    case Phase::kWrite:
      return "write";
    case Phase::kCheckpoint:
      return "checkpoint";
    case Phase::kRestart:
      return "restart";
    case Phase::kReplay:
      return "replay";
    case Phase::kDrain:
      return "drain";
    case Phase::kSpill:
      return "spill";
    case Phase::kResilver:
      return "resilver";
  }
  return "?";
}

SpanId SpanTracer::begin(std::string track, std::string name, Phase phase,
                         sim::TimePoint at, SpanId parent,
                         std::int64_t value) {
  Span s;
  s.id = static_cast<SpanId>(spans_.size() + 1);
  s.parent = parent;
  s.track = std::move(track);
  s.name = std::move(name);
  s.phase = phase;
  s.start = at;
  s.end = at;
  s.value = value;
  spans_.push_back(std::move(s));
  return spans_.back().id;
}

void SpanTracer::end(SpanId id, sim::TimePoint at) {
  if (id == 0 || id > spans_.size()) return;
  Span& s = spans_[id - 1];
  if (!s.open) return;
  s.end = at;
  s.open = false;
}

void SpanTracer::instant(std::string track, std::string name,
                         sim::TimePoint at, std::int64_t value) {
  instants_.push_back(Instant{std::move(track), std::move(name), at, value});
}

void SpanTracer::end_open_for_track(const std::string& track,
                                    sim::TimePoint at) {
  // Reverse order closes innermost spans first, keeping begin/end pairs
  // properly nested in the export.
  for (auto it = spans_.rbegin(); it != spans_.rend(); ++it) {
    if (it->open && it->track == track) {
      it->end = at;
      it->open = false;
    }
  }
}

void SpanTracer::end_all(sim::TimePoint at) {
  for (auto it = spans_.rbegin(); it != spans_.rend(); ++it) {
    if (it->open) {
      it->end = at;
      it->open = false;
    }
  }
}

const Span* SpanTracer::find(SpanId id) const {
  if (id == 0 || id > spans_.size()) return nullptr;
  return &spans_[id - 1];
}

std::vector<const Span*> SpanTracer::children_of(SpanId id) const {
  std::vector<const Span*> out;
  for (const Span& s : spans_) {
    if (s.parent == id) out.push_back(&s);
  }
  return out;
}

std::size_t SpanTracer::open_count() const {
  return static_cast<std::size_t>(
      std::count_if(spans_.begin(), spans_.end(),
                    [](const Span& s) { return s.open; }));
}

std::vector<std::string> SpanTracer::tracks() const {
  std::vector<std::string> out;
  std::unordered_set<std::string_view> seen;
  auto add = [&](const std::string& t) {
    if (seen.insert(t).second) out.push_back(t);
  };
  for (const Span& s : spans_) add(s.track);
  for (const Instant& i : instants_) add(i.track);
  return out;
}

}  // namespace dstage::obs
