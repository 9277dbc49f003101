/**
 * @file
 * Packed stochastic bit-stream.
 *
 * A stochastic number is carried by a stream of L bits; the represented
 * value is a function of the fraction of ones (Section 3.2 of the paper):
 *
 *  - unipolar encoding:  p = ones/L          represents values in [0, 1]
 *  - bipolar encoding:   x = 2*ones/L - 1    represents values in [-1, 1]
 *
 * Streams are packed 64 bits per word so the gate-level operators
 * (AND/XNOR/OR/...) and population counts run at word speed on the host.
 * Bit index 0 is the first clock cycle; within a word, cycle i maps to bit
 * (i % 64) of word (i / 64). Tail bits past the length are kept zero by
 * every mutator so popcounts never need masking.
 */

#ifndef SCDCNN_SC_BITSTREAM_H
#define SCDCNN_SC_BITSTREAM_H

#include <cstddef>
#include <cstdint>
#include <new>
#include <string>
#include <vector>

namespace scdcnn {
namespace sc {

/**
 * Fixed-length packed bit-stream.
 */
class Bitstream
{
  public:
    /** Empty stream (length zero). */
    Bitstream() = default;

    /** All-zero stream of @p length bits. */
    explicit Bitstream(size_t length);

    /** Build from explicit bits (each element 0 or 1). */
    static Bitstream fromBits(const std::vector<int> &bits);

    /** Build from a "0101..." string, cycle 0 first. */
    static Bitstream fromString(const std::string &s);

    /** Stream length in bits (clock cycles). */
    size_t length() const { return length_; }

    /** Whether the stream has zero length. */
    bool empty() const { return length_ == 0; }

    /** Read the bit at cycle @p i. */
    bool get(size_t i) const;

    /** Set the bit at cycle @p i. */
    void set(size_t i, bool v);

    /** Number of ones in the whole stream. */
    size_t countOnes() const;

    /** Number of ones in cycles [begin, end). */
    size_t countOnes(size_t begin, size_t end) const;

    /** Fraction of ones, i.e. the unipolar value. */
    double unipolar() const;

    /** Bipolar value 2*ones/L - 1. */
    double bipolar() const;

    /** Extract cycles [begin, begin+len) as a new stream. */
    Bitstream slice(size_t begin, size_t len) const;

    /** Render as a "0101..." string (cycle 0 first). */
    std::string toString() const;

    /** Bitwise AND (unipolar multiplication). Lengths must match. */
    Bitstream operator&(const Bitstream &o) const;

    /** Bitwise OR (OR-gate addition). Lengths must match. */
    Bitstream operator|(const Bitstream &o) const;

    /** Bitwise XOR. Lengths must match. */
    Bitstream operator^(const Bitstream &o) const;

    /** Bitwise XNOR (bipolar multiplication). Lengths must match. */
    Bitstream xnor(const Bitstream &o) const;

    /** Bitwise NOT (bipolar negation). */
    Bitstream operator~() const;

    bool operator==(const Bitstream &o) const;
    bool operator!=(const Bitstream &o) const { return !(*this == o); }

    /** Underlying words (read-only), tail bits guaranteed zero. */
    const std::vector<uint64_t> &words() const { return words_; }

    /** Mutable word access for bulk generators; caller must keep the
     *  invariant that tail bits stay zero (call maskTail() after). */
    std::vector<uint64_t> &mutableWords() { return words_; }

    /** Zero any bits at positions >= length. */
    void maskTail();

    /**
     * Reshape to an all-zero stream of @p length bits in place,
     * reusing the existing word storage when it is large enough (the
     * fused kernels' reusable-output contract).
     */
    void reset(size_t length);

    /** Number of 64-bit words backing the stream. */
    size_t wordCount() const { return words_.size(); }

  private:
    void checkSameLength(const Bitstream &o) const;

    size_t length_ = 0;
    std::vector<uint64_t> words_;
};

/**
 * Non-owning view of a packed stream: word pointer + bit length.
 *
 * The fused kernels take views as their operand type so a layer's
 * streams can live in one contiguous StreamArena and be streamed
 * through without chasing per-Bitstream heap allocations. A view does
 * not extend the lifetime of its storage; the invariants of Bitstream
 * (tail bits zero, cycle i at bit i%64 of word i/64) carry over.
 */
struct BitstreamView
{
    const uint64_t *words = nullptr;
    size_t length = 0;

    BitstreamView() = default;
    BitstreamView(const uint64_t *w, size_t len) : words(w), length(len) {}
    /*implicit*/ BitstreamView(const Bitstream &s)
        : words(s.words().data()), length(s.length())
    {
    }

    /** Number of 64-bit words backing the view. */
    size_t wordCount() const { return (length + 63) / 64; }

    /** Read the bit at cycle @p i (no bounds check beyond debug). */
    bool get(size_t i) const { return (words[i / 64] >> (i % 64)) & 1; }
};

/** Number of ones in cycles [begin, end) of a view (word popcounts
 *  with boundary masks; begin <= end <= length required). */
size_t countOnes(BitstreamView v, size_t begin, size_t end);

/**
 * Contiguous word arena holding @c count equal-length packed streams.
 *
 * Stream i occupies words [i*stride, i*stride + wordCount) with the
 * same layout and tail-zero invariant as a Bitstream, so a view of a
 * slot is a drop-in kernel operand. The engine packs each conv
 * filter's / FC neuron's weight streams and each layer's pixel
 * streams into one arena, which removes per-stream allocations and
 * keeps a window's operands cache-adjacent.
 */
class StreamArena
{
  public:
    StreamArena() = default;

    /** Reshape to @p count all-zero streams of @p length bits each,
     *  reusing the existing storage when large enough. */
    void reset(size_t count, size_t length);

    /** Number of streams held. */
    size_t count() const { return count_; }

    /** Length in bits of every stream. */
    size_t length() const { return length_; }

    /** Words per stream slot. */
    size_t strideWords() const { return stride_; }

    /** Mutable word pointer of slot @p i; the caller must keep the
     *  tail bits past length() zero. */
    uint64_t *wordsAt(size_t i) { return words_.data() + i * stride_; }

    /** Read-only word pointer of slot @p i. */
    const uint64_t *wordsAt(size_t i) const
    {
        return words_.data() + i * stride_;
    }

    /** Kernel operand view of slot @p i. */
    BitstreamView view(size_t i) const
    {
        return BitstreamView(wordsAt(i), length_);
    }

    /** Copy a Bitstream (of matching length) into slot @p i. */
    void assign(size_t i, const Bitstream &s);

    /** Zero any bits of slot @p i at positions >= length(). */
    void maskTail(size_t i);

  private:
    size_t count_ = 0, length_ = 0, stride_ = 0;
    std::vector<uint64_t> words_;
};

/**
 * Batch-major stream arena: @c count sites of @c images equal-length
 * packed streams, laid out site-major / image-minor.
 *
 * Slot (site i, image b) occupies words
 * [(i * images + b) * strideWords(), ...), so for a fixed site the
 * streams of consecutive images are exactly strideWords() words apart.
 * The batch-axis kernels exploit that: they take the image-0 views of
 * an operand window plus one per-tap word stride and reach image b's
 * words by pointer offset — no per-image view gather — while a weight
 * block is loaded once and reused across the whole micro-batch.
 * Per-slot layout and the tail-zero invariant match Bitstream.
 */
class BatchStreamArena
{
  public:
    BatchStreamArena() = default;

    /** Reshape to @p count sites x @p images all-zero streams of
     *  @p length bits each, reusing storage when large enough. */
    void reset(size_t count, size_t images, size_t length);

    /** Number of sites held. */
    size_t count() const { return count_; }

    /** Number of images per site. */
    size_t images() const { return images_; }

    /** Length in bits of every stream. */
    size_t length() const { return length_; }

    /** Words per stream slot — also the word distance between the
     *  same site's streams of images b and b + 1 (the batch kernels'
     *  per-tap image stride). */
    size_t strideWords() const { return stride_; }

    /** Mutable word pointer of (site @p i, image @p b); the caller
     *  must keep the tail bits past length() zero. */
    uint64_t *wordsAt(size_t i, size_t b)
    {
        return words_.data() + (i * images_ + b) * stride_;
    }

    /** Read-only word pointer of (site @p i, image @p b). */
    const uint64_t *wordsAt(size_t i, size_t b) const
    {
        return words_.data() + (i * images_ + b) * stride_;
    }

    /** Kernel operand view of (site @p i, image @p b). */
    BitstreamView view(size_t i, size_t b) const
    {
        return BitstreamView(wordsAt(i, b), length_);
    }

    /** Copy a Bitstream (of matching length) into (site, image). */
    void assign(size_t i, size_t b, const Bitstream &s);

  private:
    size_t count_ = 0, images_ = 0, length_ = 0, stride_ = 0;
    std::vector<uint64_t> words_;
};

/** Filters per interleave block: one 64-bit lane per filter in a
 *  256-bit AVX2 vector, so a filter block's weight words load with one
 *  unaligned vector load. */
constexpr size_t kFilterLanes = 4;

/**
 * View of one filter block of an InterleavedWeightArena.
 *
 * Layout is word-major: the kFilterLanes weight words of (word w,
 * tap t) sit contiguously at words[(w * taps + t) * kFilterLanes],
 * lane f first. The filter-blocked kernels therefore stream linearly
 * through the block while sharing each input word across all lanes —
 * and a word range [w0, w1) of the block is one contiguous region,
 * which is what keeps a segment's weight slice resident in L2.
 *
 * Only the first @c lanes lanes carry real filters; padding lanes (the
 * last block of a layer whose filter count is not a multiple of
 * kFilterLanes) hold zero words and their outputs are discarded.
 */
struct WeightBlockView
{
    const uint64_t *words = nullptr;
    size_t lanes = 0;  //!< real filters in this block (1..kFilterLanes)
    size_t taps = 0;   //!< operand streams per filter (bias included)
    size_t length = 0; //!< stream length in bits

    /** The kFilterLanes weight words of (word @p w, tap @p t). */
    const uint64_t *at(size_t w, size_t t) const
    {
        return words + (w * taps + t) * kFilterLanes;
    }

    /** Bit of lane @p f, tap @p t at cycle @p i (reference twins). */
    bool get(size_t f, size_t t, size_t i) const
    {
        return (at(i / 64, t)[f] >> (i % 64)) & 1;
    }

    /** Number of 64-bit words per stream. */
    size_t wordCount() const { return (length + 63) / 64; }
};

/**
 * Filter-interleaved weight storage for the filter-blocked kernels.
 *
 * Filters are grouped into blocks of kFilterLanes; within a block the
 * words are laid out as WeightBlockView describes. Streams are
 * assigned from their packed (Bitstream / StreamArena) form, so the
 * interleaved copy is bit-identical to the plain layout — the
 * round-trip the layout tests pin down. Tail-zero and cycle-order
 * invariants carry over per lane.
 */
class InterleavedWeightArena
{
  public:
    InterleavedWeightArena() = default;

    /** Reshape to @p filters filters of @p taps streams of @p length
     *  bits, all zero, reusing storage when large enough. */
    void reset(size_t filters, size_t taps, size_t length);

    /** Number of real filters held. */
    size_t filters() const { return filters_; }

    /** Operand streams per filter. */
    size_t taps() const { return taps_; }

    /** Stream length in bits. */
    size_t length() const { return length_; }

    /** Number of filter blocks, ceil(filters / kFilterLanes). */
    size_t groups() const { return groups_; }

    /** Real filters in block @p g (kFilterLanes except maybe last). */
    size_t lanesInGroup(size_t g) const;

    /** Kernel operand view of block @p g. */
    WeightBlockView block(size_t g) const;

    /** Copy packed stream words into (filter, tap)'s lane. */
    void assign(size_t filter, size_t tap, BitstreamView s);

  private:
    /** Cache-line-aligned storage: every 32-byte (word, tap) lane row
     *  then lies inside one cache line, whatever the heap layout. */
    template <class T>
    struct LineAllocator
    {
        using value_type = T;
        static constexpr std::align_val_t kAlign{64};

        LineAllocator() = default;
        template <class U> LineAllocator(const LineAllocator<U> &) {}
        T *allocate(size_t n)
        {
            return static_cast<T *>(::operator new(n * sizeof(T), kAlign));
        }
        void deallocate(T *p, size_t) { ::operator delete(p, kAlign); }
        template <class U> bool operator==(const LineAllocator<U> &) const
        {
            return true;
        }
    };

    size_t filters_ = 0, taps_ = 0, length_ = 0;
    size_t stream_words_ = 0; //!< words per stream
    size_t group_words_ = 0;  //!< words per filter block
    size_t groups_ = 0;
    std::vector<uint64_t, LineAllocator<uint64_t>> words_;
};

/** Pointer view of owned streams, for the pointer-based kernel APIs. */
inline std::vector<const Bitstream *>
toPointers(const std::vector<Bitstream> &streams)
{
    std::vector<const Bitstream *> ptrs;
    ptrs.reserve(streams.size());
    for (const auto &s : streams)
        ptrs.push_back(&s);
    return ptrs;
}

/** View vector of owned streams. */
inline std::vector<BitstreamView>
toViews(const std::vector<Bitstream> &streams)
{
    std::vector<BitstreamView> views;
    views.reserve(streams.size());
    for (const auto &s : streams)
        views.emplace_back(s);
    return views;
}

/** View vector of pointed-to streams. */
inline std::vector<BitstreamView>
toViews(const std::vector<const Bitstream *> &streams)
{
    std::vector<BitstreamView> views;
    views.reserve(streams.size());
    for (const auto *s : streams)
        views.emplace_back(*s);
    return views;
}

} // namespace sc
} // namespace scdcnn

#endif // SCDCNN_SC_BITSTREAM_H
