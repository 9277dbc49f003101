#include "sc/bitstream.h"

#include <algorithm>

#include "common/logging.h"
#include "sc/popcount.h"

namespace scdcnn {
namespace sc {

namespace {

size_t
wordsFor(size_t length)
{
    return (length + 63) / 64;
}

} // namespace

Bitstream::Bitstream(size_t length)
    : length_(length), words_(wordsFor(length), 0)
{
}

Bitstream
Bitstream::fromBits(const std::vector<int> &bits)
{
    Bitstream s(bits.size());
    for (size_t i = 0; i < bits.size(); ++i)
        if (bits[i])
            s.set(i, true);
    return s;
}

Bitstream
Bitstream::fromString(const std::string &str)
{
    Bitstream s(str.size());
    for (size_t i = 0; i < str.size(); ++i) {
        if (str[i] == '1')
            s.set(i, true);
        else if (str[i] != '0')
            fatal("Bitstream::fromString: bad character '%c'", str[i]);
    }
    return s;
}

bool
Bitstream::get(size_t i) const
{
    SCDCNN_ASSERT(i < length_, "bit index %zu out of range %zu", i, length_);
    return (words_[i / 64] >> (i % 64)) & 1;
}

void
Bitstream::set(size_t i, bool v)
{
    SCDCNN_ASSERT(i < length_, "bit index %zu out of range %zu", i, length_);
    uint64_t mask = uint64_t{1} << (i % 64);
    if (v)
        words_[i / 64] |= mask;
    else
        words_[i / 64] &= ~mask;
}

size_t
Bitstream::countOnes() const
{
    size_t n = 0;
    for (uint64_t w : words_)
        n += popcountSwar(w);
    return n;
}

size_t
Bitstream::countOnes(size_t begin, size_t end) const
{
    SCDCNN_ASSERT(begin <= end && end <= length_,
                  "bad range [%zu, %zu) for length %zu", begin, end, length_);
    return sc::countOnes(BitstreamView(*this), begin, end);
}

size_t
countOnes(BitstreamView v, size_t begin, size_t end)
{
    SCDCNN_ASSERT(begin <= end && end <= v.length,
                  "bad range [%zu, %zu) for length %zu", begin, end,
                  v.length);
    if (begin == end)
        return 0;

    size_t first_word = begin / 64;
    size_t last_word = (end - 1) / 64;
    size_t n = 0;

    if (first_word == last_word) {
        uint64_t w = v.words[first_word];
        w >>= begin % 64;
        size_t span = end - begin;
        if (span < 64)
            w &= (uint64_t{1} << span) - 1;
        return popcountSwar(w);
    }

    // Head partial word.
    n += popcountSwar(v.words[first_word] >> (begin % 64));
    // Full middle words.
    for (size_t i = first_word + 1; i < last_word; ++i)
        n += popcountSwar(v.words[i]);
    // Tail partial word.
    uint64_t w = v.words[last_word];
    size_t tail_bits = ((end - 1) % 64) + 1;
    if (tail_bits < 64)
        w &= (uint64_t{1} << tail_bits) - 1;
    n += popcountSwar(w);
    return n;
}

double
Bitstream::unipolar() const
{
    SCDCNN_ASSERT(length_ > 0, "unipolar value of empty stream");
    return static_cast<double>(countOnes()) / static_cast<double>(length_);
}

double
Bitstream::bipolar() const
{
    return 2.0 * unipolar() - 1.0;
}

Bitstream
Bitstream::slice(size_t begin, size_t len) const
{
    SCDCNN_ASSERT(begin + len <= length_,
                  "slice [%zu, +%zu) out of range %zu", begin, len, length_);
    Bitstream out(len);
    size_t shift = begin % 64;
    size_t base = begin / 64;
    for (size_t i = 0; i < out.words_.size(); ++i) {
        uint64_t w = words_[base + i] >> shift;
        if (shift != 0 && base + i + 1 < words_.size())
            w |= words_[base + i + 1] << (64 - shift);
        out.words_[i] = w;
    }
    out.maskTail();
    return out;
}

std::string
Bitstream::toString() const
{
    std::string s(length_, '0');
    for (size_t i = 0; i < length_; ++i)
        if (get(i))
            s[i] = '1';
    return s;
}

void
Bitstream::checkSameLength(const Bitstream &o) const
{
    SCDCNN_ASSERT(length_ == o.length_,
                  "stream length mismatch: %zu vs %zu", length_, o.length_);
}

Bitstream
Bitstream::operator&(const Bitstream &o) const
{
    checkSameLength(o);
    Bitstream out(length_);
    for (size_t i = 0; i < words_.size(); ++i)
        out.words_[i] = words_[i] & o.words_[i];
    return out;
}

Bitstream
Bitstream::operator|(const Bitstream &o) const
{
    checkSameLength(o);
    Bitstream out(length_);
    for (size_t i = 0; i < words_.size(); ++i)
        out.words_[i] = words_[i] | o.words_[i];
    return out;
}

Bitstream
Bitstream::operator^(const Bitstream &o) const
{
    checkSameLength(o);
    Bitstream out(length_);
    for (size_t i = 0; i < words_.size(); ++i)
        out.words_[i] = words_[i] ^ o.words_[i];
    return out;
}

Bitstream
Bitstream::xnor(const Bitstream &o) const
{
    checkSameLength(o);
    Bitstream out(length_);
    for (size_t i = 0; i < words_.size(); ++i)
        out.words_[i] = ~(words_[i] ^ o.words_[i]);
    out.maskTail();
    return out;
}

Bitstream
Bitstream::operator~() const
{
    Bitstream out(length_);
    for (size_t i = 0; i < words_.size(); ++i)
        out.words_[i] = ~words_[i];
    out.maskTail();
    return out;
}

bool
Bitstream::operator==(const Bitstream &o) const
{
    return length_ == o.length_ && words_ == o.words_;
}

void
Bitstream::reset(size_t length)
{
    length_ = length;
    words_.assign(wordsFor(length), 0);
}

void
Bitstream::maskTail()
{
    size_t tail = length_ % 64;
    if (tail != 0 && !words_.empty())
        words_.back() &= (uint64_t{1} << tail) - 1;
}

void
StreamArena::reset(size_t count, size_t length)
{
    count_ = count;
    length_ = length;
    stride_ = wordsFor(length);
    words_.assign(count_ * stride_, 0);
}

void
StreamArena::assign(size_t i, const Bitstream &s)
{
    SCDCNN_ASSERT(i < count_, "arena slot %zu out of range %zu", i,
                  count_);
    SCDCNN_ASSERT(s.length() == length_,
                  "arena stream length mismatch: %zu vs %zu", s.length(),
                  length_);
    std::copy(s.words().begin(), s.words().end(), wordsAt(i));
}

void
StreamArena::maskTail(size_t i)
{
    size_t tail = length_ % 64;
    if (tail != 0 && stride_ != 0)
        wordsAt(i)[stride_ - 1] &= (uint64_t{1} << tail) - 1;
}

void
BatchStreamArena::reset(size_t count, size_t images, size_t length)
{
    count_ = count;
    images_ = images;
    length_ = length;
    stride_ = wordsFor(length);
    words_.assign(count_ * images_ * stride_, 0);
}

void
BatchStreamArena::assign(size_t i, size_t b, const Bitstream &s)
{
    SCDCNN_ASSERT(i < count_, "arena site %zu out of range %zu", i,
                  count_);
    SCDCNN_ASSERT(b < images_, "arena image %zu out of range %zu", b,
                  images_);
    SCDCNN_ASSERT(s.length() == length_,
                  "arena stream length mismatch: %zu vs %zu", s.length(),
                  length_);
    std::copy(s.words().begin(), s.words().end(), wordsAt(i, b));
}

void
InterleavedWeightArena::reset(size_t filters, size_t taps, size_t length)
{
    filters_ = filters;
    taps_ = taps;
    length_ = length;
    stream_words_ = wordsFor(length);
    group_words_ = stream_words_ * taps_ * kFilterLanes;
    groups_ = (filters + kFilterLanes - 1) / kFilterLanes;
    words_.assign(groups_ * group_words_, 0);
}

size_t
InterleavedWeightArena::lanesInGroup(size_t g) const
{
    SCDCNN_ASSERT(g < groups_, "filter block %zu out of range %zu", g,
                  groups_);
    return std::min(kFilterLanes, filters_ - g * kFilterLanes);
}

WeightBlockView
InterleavedWeightArena::block(size_t g) const
{
    WeightBlockView v;
    v.words = words_.data() + g * group_words_;
    v.lanes = lanesInGroup(g);
    v.taps = taps_;
    v.length = length_;
    return v;
}

void
InterleavedWeightArena::assign(size_t filter, size_t tap, BitstreamView s)
{
    SCDCNN_ASSERT(filter < filters_, "filter %zu out of range %zu",
                  filter, filters_);
    SCDCNN_ASSERT(tap < taps_, "tap %zu out of range %zu", tap, taps_);
    SCDCNN_ASSERT(s.length == length_,
                  "interleaved stream length mismatch: %zu vs %zu",
                  s.length, length_);
    const size_t g = filter / kFilterLanes;
    const size_t lane = filter % kFilterLanes;
    uint64_t *base = words_.data() + g * group_words_;
    for (size_t w = 0; w < stream_words_; ++w)
        base[(w * taps_ + tap) * kFilterLanes + lane] = s.words[w];
}

} // namespace sc
} // namespace scdcnn
