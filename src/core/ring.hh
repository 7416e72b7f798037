/**
 * @file
 * Fixed-capacity FIFO ring for the pipeline's per-cycle queues.
 *
 * Storage is one power-of-two array addressed by `head` and `count`,
 * so every access is a mask instead of std::deque's block arithmetic,
 * and elements never move while the ring holds them. Callers size a
 * ring from the geometry bound of the queue it models; a push onto a
 * full ring doubles the storage (keeping FIFO order), which only the
 * queues without a provable bound ever need. Popped slots keep their
 * last value until they are pushed over, and a push assigns the whole
 * element, so an element type that owns a buffer (an SQ entry's
 * waiter list) keeps that buffer's capacity across reuse.
 */

#ifndef SB_CORE_RING_HH
#define SB_CORE_RING_HH

#include <cstddef>
#include <utility>
#include <vector>

#include "common/logging.hh"

namespace sb
{

template <typename T>
class Ring
{
  public:
    /** @param min_capacity slots needed; rounded up to a power of two. */
    explicit Ring(std::size_t min_capacity = 1)
    {
        std::size_t cap = 1;
        while (cap < min_capacity)
            cap <<= 1;
        buf.resize(cap);
        mask = cap - 1;
    }

    std::size_t size() const { return count; }
    bool empty() const { return count == 0; }
    std::size_t capacity() const { return buf.size(); }

    /** The element @p i places behind the front (0 = front). */
    T &operator[](std::size_t i) { return buf[(head + i) & mask]; }
    const T &operator[](std::size_t i) const
    {
        return buf[(head + i) & mask];
    }

    T &front() { return buf[head]; }
    const T &front() const { return buf[head]; }
    T &back() { return (*this)[count - 1]; }
    const T &back() const { return (*this)[count - 1]; }

    void
    push_back(const T &v)
    {
        if (count == buf.size())
            grow();
        buf[(head + count) & mask] = v;
        ++count;
    }

    void
    pop_front()
    {
        sb_assert(count > 0, "pop_front on an empty ring");
        head = (head + 1) & mask;
        --count;
    }

    void
    pop_back()
    {
        sb_assert(count > 0, "pop_back on an empty ring");
        --count;
    }

    void
    clear()
    {
        head = 0;
        count = 0;
    }

    /** Front-to-back iteration (for range-for). */
    template <typename R, typename V>
    class Iter
    {
      public:
        Iter(R *r, std::size_t i) : ring(r), idx(i) {}
        V &operator*() const { return (*ring)[idx]; }
        Iter &
        operator++()
        {
            ++idx;
            return *this;
        }
        bool operator!=(const Iter &o) const { return idx != o.idx; }
        bool operator==(const Iter &o) const { return idx == o.idx; }

      private:
        R *ring;
        std::size_t idx;
    };
    using iterator = Iter<Ring, T>;
    using const_iterator = Iter<const Ring, const T>;

    iterator begin() { return iterator(this, 0); }
    iterator end() { return iterator(this, count); }
    const_iterator begin() const { return const_iterator(this, 0); }
    const_iterator end() const { return const_iterator(this, count); }

  private:
    /** Double the storage, moving the live elements to the front. */
    void
    grow()
    {
        std::vector<T> bigger(buf.size() * 2);
        for (std::size_t i = 0; i < count; ++i)
            bigger[i] = std::move((*this)[i]);
        buf.swap(bigger);
        head = 0;
        mask = buf.size() - 1;
    }

    std::vector<T> buf;
    std::size_t mask = 0;
    std::size_t head = 0;
    std::size_t count = 0;
};

} // namespace sb

#endif // SB_CORE_RING_HH
