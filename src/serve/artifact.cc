#include "serve/artifact.h"

#include <cmath>
#include <cstdio>
#include <cstring>
#include <utility>

#include "common/crc32.h"

namespace scdcnn {
namespace serve {

namespace {

constexpr uint32_t kArtifactMagic = 0x53C4A27F;
constexpr uint32_t kArtifactFormatVersion = 3;

using Code = nn::LoadResult::Code;

/** Sanity ceilings for decoded fields (BadField beyond them). They
 *  bound allocations and keep a crafted-but-checksummed file from
 *  reaching the topology builder's panics. */
constexpr uint64_t kMaxDim = 4096;
constexpr uint64_t kMaxStages = 64;
constexpr uint64_t kMaxWidth = 1u << 20;
constexpr uint64_t kMaxStreamLen = 1u << 20;

class ByteWriter
{
  public:
    void u8(uint8_t v) { buf_.push_back(v); }
    void u32(uint32_t v) { raw(&v, sizeof v); }
    void u64(uint64_t v) { raw(&v, sizeof v); }
    void f64(double v) { raw(&v, sizeof v); }
    void str(const std::string &s)
    {
        u32(static_cast<uint32_t>(s.size()));
        raw(s.data(), s.size());
    }

    const std::vector<unsigned char> &bytes() const { return buf_; }

  private:
    void raw(const void *p, size_t n)
    {
        const auto *b = static_cast<const unsigned char *>(p);
        buf_.insert(buf_.end(), b, b + n);
    }

    std::vector<unsigned char> buf_;
};

/** Bounds-checked cursor over the (already CRC-verified) header. */
class ByteReader
{
  public:
    ByteReader(const unsigned char *data, size_t len, size_t base)
        : data_(data), len_(len), base_(base)
    {
    }

    bool u8(uint8_t *v) { return raw(v, sizeof *v); }
    bool u32(uint32_t *v) { return raw(v, sizeof *v); }
    bool u64(uint64_t *v) { return raw(v, sizeof *v); }
    bool f64(double *v) { return raw(v, sizeof *v); }

    bool str(std::string *s)
    {
        uint32_t n = 0;
        if (!u32(&n) || n > len_ - pos_)
            return false;
        s->assign(reinterpret_cast<const char *>(data_ + pos_), n);
        pos_ += n;
        return true;
    }

    /** Absolute file offset of the cursor (for diagnostics). */
    size_t offset() const { return base_ + pos_; }

    bool done() const { return pos_ == len_; }

  private:
    bool raw(void *p, size_t n)
    {
        if (n > len_ - pos_)
            return false;
        std::memcpy(p, data_ + pos_, n);
        pos_ += n;
        return true;
    }

    const unsigned char *data_;
    size_t len_;
    size_t base_;
    size_t pos_ = 0;
};

void
encodeHeader(ByteWriter &w, const ModelArtifact &a)
{
    w.str(a.name);
    w.u32(a.version);

    const nn::TopologySpec &s = a.spec;
    w.u64(s.in_c);
    w.u64(s.in_h);
    w.u64(s.in_w);
    w.u32(static_cast<uint32_t>(s.convs.size()));
    for (const auto &c : s.convs) {
        w.u64(c.c_out);
        w.u64(c.k);
    }
    w.u32(static_cast<uint32_t>(s.fc_hidden.size()));
    for (size_t h : s.fc_hidden)
        w.u64(h);
    w.u64(s.n_classes);
    w.f64(s.act_scale);
    w.u64(s.seed);
    w.u64(s.seed_stride);

    w.u8(static_cast<uint8_t>(a.pooling));

    const core::ScNetworkConfig &c = a.config;
    w.u8(static_cast<uint8_t>(c.pooling));
    for (core::AdderKind k : c.layer_adders)
        w.u8(static_cast<uint8_t>(k));
    w.u64(c.bitstream_len);
    for (unsigned b : c.weight_bits)
        w.u32(b);
    w.u64(c.segment_len);
    w.u64(c.input_c);
    w.u64(c.input_h);
    w.u64(c.input_w);
    w.u64(c.stream_segment_words);
    w.f64(c.progressive_margin);
    w.u64(c.progressive_min_bits);

    w.u32(static_cast<uint32_t>(a.tensors.size()));
}

nn::LoadResult
badField(const ByteReader &r, const char *what, uint64_t limit,
         uint64_t value)
{
    return nn::LoadResult::failure(Code::BadField, r.offset(), what,
                                   limit, value);
}

/** Decode + range-validate the header payload into @p a (tensor
 *  count into @p n_tensors). Truncated on a short header, BadField on
 *  any out-of-range value. */
nn::LoadResult
decodeHeader(ByteReader &r, ModelArtifact &a, uint32_t *n_tensors)
{
    const auto truncated = [&r](const char *what) {
        return nn::LoadResult::failure(Code::Truncated, r.offset(),
                                       what);
    };

    if (!r.str(&a.name))
        return truncated("model name");
    if (!r.u32(&a.version))
        return truncated("model version");

    nn::TopologySpec &s = a.spec;
    uint32_t n = 0;
    if (!r.u64(&s.in_c) || !r.u64(&s.in_h) || !r.u64(&s.in_w))
        return truncated("input geometry");
    if (s.in_c == 0 || s.in_c > kMaxDim || s.in_h == 0 ||
        s.in_h > kMaxDim || s.in_w == 0 || s.in_w > kMaxDim)
        return badField(r, "input geometry", kMaxDim, s.in_h);
    if (!r.u32(&n))
        return truncated("conv count");
    if (n > kMaxStages)
        return badField(r, "conv count", kMaxStages, n);
    s.convs.resize(n);
    for (auto &c : s.convs) {
        if (!r.u64(&c.c_out) || !r.u64(&c.k))
            return truncated("conv stage");
        if (c.c_out == 0 || c.c_out > kMaxDim)
            return badField(r, "conv c_out", kMaxDim, c.c_out);
        if (c.k == 0 || c.k > kMaxDim)
            return badField(r, "conv kernel", kMaxDim, c.k);
    }
    if (!r.u32(&n))
        return truncated("fc count");
    if (n > kMaxStages)
        return badField(r, "fc count", kMaxStages, n);
    s.fc_hidden.resize(n);
    for (auto &h : s.fc_hidden) {
        if (!r.u64(&h))
            return truncated("fc width");
        if (h == 0 || h > kMaxWidth)
            return badField(r, "fc width", kMaxWidth, h);
    }
    if (!r.u64(&s.n_classes))
        return truncated("class count");
    if (s.n_classes == 0 || s.n_classes > kMaxDim)
        return badField(r, "class count", kMaxDim, s.n_classes);
    if (!r.f64(&s.act_scale))
        return truncated("act scale");
    if (!std::isfinite(s.act_scale) || s.act_scale <= 0.0 ||
        s.act_scale > 100.0)
        return badField(r, "act scale", 100, 0);
    if (!r.u64(&s.seed) || !r.u64(&s.seed_stride))
        return truncated("seed schedule");

    // The conv chain must produce the even-sized shapes buildTopology
    // demands; checking here keeps its panics unreachable from a file.
    size_t h = s.in_h, w = s.in_w;
    for (const auto &c : s.convs) {
        if (c.k >= h + 1 || c.k >= w + 1)
            return badField(r, "conv kernel exceeds input", h, c.k);
        h = h - c.k + 1;
        w = w - c.k + 1;
        if (h % 2 != 0 || w % 2 != 0 || h == 0 || w == 0)
            return badField(r, "odd conv output", 0, h);
        h /= 2;
        w /= 2;
    }

    uint8_t b = 0;
    if (!r.u8(&b))
        return truncated("pooling");
    if (b > 1)
        return badField(r, "pooling", 1, b);
    a.pooling = static_cast<nn::PoolingMode>(b);

    core::ScNetworkConfig &c = a.config;
    if (!r.u8(&b))
        return truncated("config pooling");
    if (b > 1)
        return badField(r, "config pooling", 1, b);
    c.pooling = static_cast<nn::PoolingMode>(b);
    for (core::AdderKind &k : c.layer_adders) {
        if (!r.u8(&b))
            return truncated("adder kind");
        if (b > 1)
            return badField(r, "adder kind", 1, b);
        k = static_cast<core::AdderKind>(b);
    }
    if (!r.u64(&c.bitstream_len))
        return truncated("bitstream length");
    if (c.bitstream_len < 2 || c.bitstream_len > kMaxStreamLen)
        return badField(r, "bitstream length", kMaxStreamLen,
                        c.bitstream_len);
    for (unsigned &wb : c.weight_bits) {
        uint32_t v = 0;
        if (!r.u32(&v))
            return truncated("weight bits");
        if (v == 0 || v > 32)
            return badField(r, "weight bits", 32, v);
        wb = v;
    }
    if (!r.u64(&c.segment_len))
        return truncated("segment length");
    if (c.segment_len == 0 || c.segment_len > c.bitstream_len)
        return badField(r, "segment length", c.bitstream_len,
                        c.segment_len);
    if (!r.u64(&c.input_c) || !r.u64(&c.input_h) || !r.u64(&c.input_w))
        return truncated("config geometry");
    if (c.input_c != s.in_c || c.input_h != s.in_h ||
        c.input_w != s.in_w)
        return badField(r, "config/spec geometry disagree", s.in_h,
                        c.input_h);
    if (!r.u64(&c.stream_segment_words))
        return truncated("segment words");
    if (c.stream_segment_words > kMaxStreamLen)
        return badField(r, "segment words", kMaxStreamLen,
                        c.stream_segment_words);
    if (!r.f64(&c.progressive_margin))
        return truncated("progressive margin");
    if (!std::isfinite(c.progressive_margin) ||
        c.progressive_margin < 0.0)
        return badField(r, "progressive margin", 0, 0);
    if (!r.u64(&c.progressive_min_bits))
        return truncated("progressive min bits");
    if (c.progressive_min_bits > kMaxStreamLen)
        return badField(r, "progressive min bits", kMaxStreamLen,
                        c.progressive_min_bits);

    if (!r.u32(n_tensors))
        return truncated("tensor count");
    // 2 tensors per conv/fc stage plus the output layer's pair.
    const uint64_t expect =
        2 * (s.convs.size() + s.fc_hidden.size() + 1);
    if (*n_tensors != expect)
        return badField(r, "tensor count", expect, *n_tensors);
    if (!r.done())
        return badField(r, "trailing header bytes", 0, 0);
    return nn::LoadResult::success();
}

} // namespace

ModelArtifact
makeArtifact(std::string name, uint32_t version,
             const nn::TopologySpec &spec, nn::PoolingMode pooling,
             const core::ScNetworkConfig &config,
             const nn::Network &net)
{
    ModelArtifact a;
    a.name = std::move(name);
    a.version = version;
    a.spec = spec;
    a.pooling = pooling;
    a.config = config;
    for (size_t i = 0; i < net.layerCount(); ++i) {
        // Parameter access is non-const on Layer; the copy is local.
        auto &layer = const_cast<nn::Layer &>(net.layer(i));
        if (auto *w = layer.weights())
            a.tensors.push_back(*w);
        if (auto *b = layer.biases())
            a.tensors.push_back(*b);
    }
    return a;
}

nn::LoadResult
saveArtifact(const ModelArtifact &artifact, const std::string &path)
{
    ByteWriter header;
    encodeHeader(header, artifact);
    const auto &hb = header.bytes();
    const auto header_len = static_cast<uint64_t>(hb.size());
    const uint32_t header_crc = crc32(hb.data(), hb.size());

    std::FILE *f = std::fopen(path.c_str(), "wb");
    if (f == nullptr)
        return nn::LoadResult::failure(Code::OpenFailed, 0, path);
    bool ok =
        std::fwrite(&kArtifactMagic, sizeof(kArtifactMagic), 1, f) ==
            1 &&
        std::fwrite(&kArtifactFormatVersion,
                    sizeof(kArtifactFormatVersion), 1, f) == 1 &&
        std::fwrite(&header_len, sizeof(header_len), 1, f) == 1 &&
        std::fwrite(&header_crc, sizeof(header_crc), 1, f) == 1 &&
        std::fwrite(hb.data(), 1, hb.size(), f) == hb.size();
    for (const auto &t : artifact.tensors) {
        if (!ok)
            break;
        const auto n = static_cast<uint64_t>(t.size());
        uint32_t crc = crc32(&n, sizeof(n));
        crc = crc32(t.data(), t.size() * sizeof(float), crc);
        ok = std::fwrite(&n, sizeof(n), 1, f) == 1 &&
             std::fwrite(&crc, sizeof(crc), 1, f) == 1 &&
             std::fwrite(t.data(), sizeof(float), t.size(), f) ==
                 t.size();
    }
    const auto at = ok ? 0 : static_cast<size_t>(std::ftell(f));
    std::fclose(f);
    return ok ? nn::LoadResult::success()
              : nn::LoadResult::failure(Code::WriteFailed, at, path);
}

nn::LoadResult
loadArtifact(const std::string &path, ModelArtifact *out,
             FaultInjector *faults)
{
    if (faults != nullptr)
        faults->fire(FaultPoint::ModelLoad); // slow-load stall

    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (f == nullptr)
        return nn::LoadResult::failure(Code::OpenFailed, 0, path);
    std::fseek(f, 0, SEEK_END);
    const long file_size = std::ftell(f);
    std::fseek(f, 0, SEEK_SET);

    uint32_t magic = 0, fmt = 0, header_crc = 0;
    uint64_t header_len = 0;
    if (std::fread(&magic, sizeof(magic), 1, f) != 1) {
        std::fclose(f);
        return nn::LoadResult::failure(Code::Truncated, 0, path);
    }
    if (magic != kArtifactMagic) {
        std::fclose(f);
        return nn::LoadResult::failure(Code::BadMagic, 0, path,
                                       kArtifactMagic, magic);
    }
    if (std::fread(&fmt, sizeof(fmt), 1, f) != 1 ||
        std::fread(&header_len, sizeof(header_len), 1, f) != 1 ||
        std::fread(&header_crc, sizeof(header_crc), 1, f) != 1) {
        std::fclose(f);
        return nn::LoadResult::failure(Code::Truncated, sizeof(magic),
                                       path);
    }
    if (fmt != kArtifactFormatVersion) {
        std::fclose(f);
        return nn::LoadResult::failure(Code::BadVersion, sizeof(magic),
                                       path, kArtifactFormatVersion,
                                       fmt);
    }
    const size_t header_base =
        sizeof(magic) + sizeof(fmt) + sizeof(header_len) +
        sizeof(header_crc);
    if (header_len > static_cast<uint64_t>(file_size) - header_base) {
        std::fclose(f);
        return nn::LoadResult::failure(
            Code::Truncated, sizeof(magic) + sizeof(fmt), path,
            header_len,
            static_cast<uint64_t>(file_size) - header_base);
    }
    std::vector<unsigned char> header(header_len);
    if (header_len > 0 &&
        std::fread(header.data(), 1, header.size(), f) !=
            header.size()) {
        std::fclose(f);
        return nn::LoadResult::failure(Code::Truncated, header_base,
                                       path);
    }
    // Fault injection: an ArtifactRead shot models a torn/corrupt
    // read by flipping one header byte after it left the file —
    // exactly what the CRC must catch.
    if (faults != nullptr && !header.empty() &&
        faults->fire(FaultPoint::ArtifactRead))
        header[header.size() / 2] ^= 0x40;
    const uint32_t crc = crc32(header.data(), header.size());
    if (crc != header_crc) {
        std::fclose(f);
        return nn::LoadResult::failure(Code::CrcMismatch, header_base,
                                       "artifact header", header_crc,
                                       crc);
    }

    ModelArtifact a;
    uint32_t n_tensors = 0;
    ByteReader reader(header.data(), header.size(), header_base);
    nn::LoadResult r = decodeHeader(reader, a, &n_tensors);
    if (!r.ok()) {
        std::fclose(f);
        return r;
    }

    a.tensors.resize(n_tensors);
    for (uint32_t i = 0; i < n_tensors; ++i) {
        const auto at = static_cast<size_t>(std::ftell(f));
        uint64_t n = 0;
        uint32_t stored = 0;
        if (std::fread(&n, sizeof(n), 1, f) != 1 ||
            std::fread(&stored, sizeof(stored), 1, f) != 1) {
            std::fclose(f);
            return nn::LoadResult::failure(Code::Truncated, at,
                                           "tensor record", 0, 0, i);
        }
        const auto remaining = static_cast<uint64_t>(file_size) -
                               static_cast<uint64_t>(at) - sizeof(n) -
                               sizeof(stored);
        if (n > remaining / sizeof(float)) {
            std::fclose(f);
            return nn::LoadResult::failure(Code::Truncated, at,
                                           "tensor record",
                                           n * sizeof(float),
                                           remaining, i);
        }
        std::vector<float> &t = a.tensors[i];
        t.resize(n);
        if (std::fread(t.data(), sizeof(float), t.size(), f) !=
            t.size()) {
            std::fclose(f);
            return nn::LoadResult::failure(Code::Truncated, at,
                                           "tensor record", 0, 0, i);
        }
        uint32_t tc = crc32(&n, sizeof(n));
        tc = crc32(t.data(), t.size() * sizeof(float), tc);
        if (tc != stored) {
            std::fclose(f);
            return nn::LoadResult::failure(Code::CrcMismatch, at,
                                           "tensor record", stored, tc,
                                           i);
        }
    }
    const auto end = static_cast<size_t>(std::ftell(f));
    std::fclose(f);
    if (end != static_cast<size_t>(file_size))
        return nn::LoadResult::failure(Code::BadField, end,
                                       "trailing bytes after tensors",
                                       static_cast<uint64_t>(file_size),
                                       end);
    *out = std::move(a);
    return nn::LoadResult::success();
}

nn::LoadResult
instantiate(const ModelArtifact &artifact, nn::Network *out)
{
    nn::Network net =
        nn::buildTopology(artifact.spec, artifact.pooling);
    size_t idx = 0;
    for (size_t i = 0; i < net.layerCount(); ++i) {
        nn::Layer &layer = net.layer(i);
        for (std::vector<float> *param :
             {layer.weights(), layer.biases()}) {
            if (param == nullptr)
                continue;
            if (idx >= artifact.tensors.size())
                return nn::LoadResult::failure(
                    Code::ShapeMismatch, 0, "too few tensors", idx + 1,
                    artifact.tensors.size(), idx);
            const std::vector<float> &t = artifact.tensors[idx];
            if (t.size() != param->size())
                return nn::LoadResult::failure(
                    Code::ShapeMismatch, 0, "tensor element count",
                    param->size(), t.size(), idx);
            *param = t;
            ++idx;
        }
    }
    if (idx != artifact.tensors.size())
        return nn::LoadResult::failure(Code::ShapeMismatch, 0,
                                       "too many tensors", idx,
                                       artifact.tensors.size(), idx);
    *out = std::move(net);
    return nn::LoadResult::success();
}

} // namespace serve
} // namespace scdcnn
