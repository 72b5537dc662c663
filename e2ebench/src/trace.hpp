// In-memory span recorder for the traced benchmark run.
//
// Spans are recorded by the benchmark around its own calls into each layer
// (never inside the library), single-threaded, and written as Chrome
// trace-event JSON when the run ends.  A span's self time is its duration
// minus the durations of its direct children; children never overlap
// because every call is serial.
#ifndef ARCADE_E2E_TRACE_HPP
#define ARCADE_E2E_TRACE_HPP

#include <chrono>
#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

namespace e2e {

class Tracer {
public:
    struct Span {
        std::string name;
        std::int64_t start_ns = 0;
        std::int64_t end_ns = 0;
        std::int64_t parent = -1;  ///< index into spans(), -1 at top level
        std::int64_t op = -1;      ///< operation the span belongs to
        std::int64_t children_ns = 0;
    };

    /// Opens a span; close it with end(), innermost first.
    void begin(std::string name) {
        Span span;
        span.name = std::move(name);
        span.parent = open_.empty() ? -1 : static_cast<std::int64_t>(open_.back());
        span.op = op_;
        span.start_ns = now_ns();
        spans_.push_back(std::move(span));
        open_.push_back(spans_.size() - 1);
    }

    /// Closes the innermost span and returns its duration in seconds.
    double end() {
        const std::size_t index = open_.back();
        open_.pop_back();
        Span& span = spans_[index];
        span.end_ns = now_ns();
        const std::int64_t duration = span.end_ns - span.start_ns;
        if (span.parent >= 0) spans_[static_cast<std::size_t>(span.parent)].children_ns += duration;
        return static_cast<double>(duration) * 1e-9;
    }

    void set_op(std::int64_t op) { op_ = op; }

    [[nodiscard]] const std::vector<Span>& spans() const noexcept { return spans_; }

    /// Chrome trace-event JSON ("X" complete events, microseconds).
    void write_chrome_json(std::ostream& os) const {
        const std::int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
        os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            const Span& s = spans_[i];
            if (i > 0) os << ',';
            os << "\n{\"name\":\"" << s.name << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1"
               << ",\"ts\":" << static_cast<double>(s.start_ns - origin) * 1e-3
               << ",\"dur\":" << static_cast<double>(s.end_ns - s.start_ns) * 1e-3
               << ",\"args\":{\"id\":" << i << ",\"parent\":" << s.parent
               << ",\"op\":" << s.op << "}}";
        }
        os << "\n]}\n";
    }

private:
    [[nodiscard]] static std::int64_t now_ns() {
        return std::chrono::duration_cast<std::chrono::nanoseconds>(
                   std::chrono::steady_clock::now().time_since_epoch())
            .count();
    }

    std::vector<Span> spans_;
    std::vector<std::size_t> open_;
    std::int64_t op_ = -1;
};

/// RAII span; a null tracer records nothing (the untraced path).
class Scope {
public:
    Scope(Tracer* tracer, const char* name) : tracer_(tracer) {
        if (tracer_ != nullptr) tracer_->begin(name);
    }
    ~Scope() {
        if (tracer_ != nullptr) tracer_->end();
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

private:
    Tracer* tracer_;
};

}  // namespace e2e

#endif  // ARCADE_E2E_TRACE_HPP
