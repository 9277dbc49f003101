#include "obs/chrome_trace.h"

#include <algorithm>
#include <cinttypes>
#include <cstdarg>
#include <cstdio>
#include <set>

namespace scdcnn::obs {

namespace {

void
appendf(std::string &out, const char *fmt, ...)
{
    char buf[512];
    va_list ap;
    va_start(ap, fmt);
    const int n = std::vsnprintf(buf, sizeof(buf), fmt, ap);
    va_end(ap);
    if (n > 0)
        out.append(buf, std::min<size_t>(static_cast<size_t>(n),
                                         sizeof(buf) - 1));
}

void
appendEscaped(std::string &out, const std::string &s)
{
    for (char c : s) {
        if (c == '"' || c == '\\') {
            out.push_back('\\');
            out.push_back(c);
        } else if (static_cast<unsigned char>(c) < 0x20) {
            appendf(out, "\\u%04x", c);
        } else {
            out.push_back(c);
        }
    }
}

// Mirrors serve::CloseReason; the exporter renders the raw number if
// serve ever grows a reason this table does not know.
const char *
closeReasonName(uint16_t reason)
{
    switch (reason) {
    case 0: return "full";
    case 1: return "delay_expired";
    case 2: return "expedited";
    case 3: return "drain";
    default: return nullptr;
    }
}

// Per-name argument labels for (extra, a0, a1); null omits the field.
struct ArgLabels
{
    const char *extra = nullptr;
    const char *a0 = nullptr;
    const char *a1 = nullptr;
};

ArgLabels
argLabels(SpanName name)
{
    switch (name) {
    case SpanName::Encode:
    case SpanName::InnerProduct:
    case SpanName::Pooling:
    case SpanName::Activation:
    case SpanName::Output: return {nullptr, "seg", nullptr};
    case SpanName::EarlyExit: return {nullptr, "bits", "stage"};
    case SpanName::BatchCompact: return {nullptr, "kept", "before"};
    case SpanName::Request: return {"qos", "req", "bits"};
    case SpanName::QueueWait: return {"qos", "req", nullptr};
    case SpanName::BatchClose: return {"reason", "batch", nullptr};
    case SpanName::BatchCompute: return {nullptr, "batch", "bits"};
    case SpanName::Shed:
    case SpanName::Cancelled:
    case SpanName::Rejected: return {"code", "req", nullptr};
    case SpanName::Fault: return {nullptr, "point", nullptr};
    case SpanName::QueueDepth: return {nullptr, "depth", nullptr};
    case SpanName::Scenario:
    case SpanName::BinaryForward: return {nullptr, nullptr, nullptr};
    case SpanName::kCount: break;
    }
    return {};
}

void
appendArgs(std::string &out, const Event &e)
{
    const ArgLabels labels = argLabels(e.name());
    out += "\"args\":{";
    bool first = true;
    const auto field = [&](const char *key, uint64_t value) {
        if (key == nullptr)
            return;
        appendf(out, "%s\"%s\":%" PRIu64, first ? "" : ",", key,
                value);
        first = false;
    };
    if (e.name() == SpanName::BatchClose &&
        closeReasonName(e.extra()) != nullptr) {
        appendf(out, "\"reason\":\"%s\"", closeReasonName(e.extra()));
        first = false;
    } else {
        field(labels.extra, e.extra());
    }
    field(labels.a0, e.a0);
    field(labels.a1, e.a1);
    if (e.tag() != 0) {
        const std::string model =
            TraceRecorder::instance().tagLabel(e.tag());
        if (!model.empty()) {
            appendf(out, "%s\"model\":\"", first ? "" : ",");
            appendEscaped(out, model);
            out += "\"";
            first = false;
        }
    }
    out += "}";
}

} // namespace

std::string
chromeTraceJson(const std::vector<Event> &events)
{
    std::string out;
    out.reserve(events.size() * 128 + 256);
    out += "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
    bool first = true;
    std::set<uint16_t> tids;
    for (const Event &e : events) {
        if (e.kind() == EventKind::None)
            continue;
        tids.insert(e.tid());
        if (!first)
            out += ",";
        first = false;
        const double ts_us = static_cast<double>(e.ts_ns) / 1000.0;
        appendf(out,
                "{\"name\":\"%s\",\"pid\":1,\"tid\":%u,"
                "\"ts\":%.3f,",
                spanName(e.name()), e.tid(), ts_us);
        switch (e.kind()) {
        case EventKind::SpanComplete:
            appendf(out, "\"ph\":\"X\",\"dur\":%.3f,",
                    static_cast<double>(e.dur_or_id) / 1000.0);
            break;
        case EventKind::AsyncBegin:
            appendf(out,
                    "\"ph\":\"b\",\"cat\":\"%s\","
                    "\"id\":\"0x%" PRIx64 "\",",
                    spanName(e.name()), e.dur_or_id);
            break;
        case EventKind::AsyncEnd:
            appendf(out,
                    "\"ph\":\"e\",\"cat\":\"%s\","
                    "\"id\":\"0x%" PRIx64 "\",",
                    spanName(e.name()), e.dur_or_id);
            break;
        case EventKind::Instant:
            out += "\"ph\":\"i\",\"s\":\"t\",";
            break;
        case EventKind::Counter:
            out += "\"ph\":\"C\",";
            break;
        case EventKind::None:
            break;
        }
        if (e.kind() == EventKind::Counter) {
            appendf(out, "\"args\":{\"%s\":%" PRIu64 "}",
                    spanName(e.name()), e.a0);
        } else {
            appendArgs(out, e);
        }
        out += "}";
    }
    // Thread-name metadata so Perfetto shows worker labels.
    for (uint16_t tid : tids) {
        const std::string label =
            TraceRecorder::instance().threadLabel(tid);
        if (label.empty())
            continue;
        appendf(out,
                "%s{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,"
                "\"tid\":%u,\"args\":{\"name\":\"",
                first ? "" : ",", tid);
        appendEscaped(out, label);
        out += "\"}}";
        first = false;
    }
    out += "]}";
    return out;
}

bool
writeChromeTrace(const std::string &path,
                 const std::vector<Event> &events)
{
    const std::string json = chromeTraceJson(events);
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (f == nullptr)
        return false;
    const size_t n = std::fwrite(json.data(), 1, json.size(), f);
    const bool ok = n == json.size() && std::fclose(f) == 0;
    if (n != json.size())
        std::fclose(f);
    return ok;
}

bool
writeChromeTrace(const std::string &path)
{
    return writeChromeTrace(path,
                            TraceRecorder::instance().snapshot());
}

} // namespace scdcnn::obs
