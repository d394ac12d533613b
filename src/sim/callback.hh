/**
 * @file
 * InlineCallback: a move-only callable wrapper with configurable
 * inline storage, built for the simulation hot path.
 *
 * The discrete-event kernel retires millions of one-shot callbacks per
 * simulated figure; with std::function, any capture set beyond two
 * pointers heap-allocates (libstdc++ keeps 16 bytes inline), and the
 * completion chain of a single memory access performs several such
 * allocations. InlineCallback stores the callable inside the wrapper
 * itself whenever it fits, so the common capture sets -- a `this`
 * pointer plus a few scalars, such as a device's `{this, slot}` --
 * never touch the allocator. Oversized callables, such as a lambda
 * that captures another callback, transparently fall back to a single
 * heap cell, preserving std::function's "anything callable"
 * convenience.
 *
 * Differences from std::function, by design:
 *  - move-only: completion callbacks are consumed exactly once, and
 *    copyability is what forces std::function to allocate type-erased
 *    clone machinery. Use std::move at every hand-off.
 *  - no target_type()/target() introspection.
 *  - invoking an empty callback asserts instead of throwing.
 */

#ifndef CXLMEMO_SIM_CALLBACK_HH
#define CXLMEMO_SIM_CALLBACK_HH

#include <cstddef>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>

#include "sim/logging.hh"
#include "sim/pool.hh"

namespace cxlmemo
{

template <typename Signature, std::size_t InlineBytes = 48>
class InlineCallback;

template <typename R, typename... Args, std::size_t InlineBytes>
class InlineCallback<R(Args...), InlineBytes>
{
  public:
    /** Bytes of capture state stored without heap allocation. */
    static constexpr std::size_t inlineBytes = InlineBytes;

    InlineCallback() noexcept = default;
    InlineCallback(std::nullptr_t) noexcept {}

    /** Wrap any callable; inline when it fits, one heap cell when not. */
    template <typename F,
              typename D = std::decay_t<F>,
              typename = std::enable_if_t<
                  !std::is_same_v<D, InlineCallback>
                  && !std::is_same_v<D, std::nullptr_t>
                  && std::is_invocable_r_v<R, D &, Args...>>>
    InlineCallback(F &&f) // NOLINT: implicit, like std::function
    {
        if constexpr (fitsInline<D>) {
            ::new (static_cast<void *>(storage_)) D(std::forward<F>(f));
            invoke_ = &invokeInline<D>;
            ops_ = &inlineOps<D>;
        } else if constexpr (alignof(D) <= alignof(std::max_align_t)) {
            // Spilled callables are hot-path traffic (the cache
            // hierarchy's miss chain captures a whole callback); serve
            // the cell from the free-list pool instead of global new.
            void *cell = poolAlloc(sizeof(D));
            ::new (static_cast<void *>(storage_))
                (D *)(::new (cell) D(std::forward<F>(f)));
            invoke_ = &invokeHeap<D>;
            ops_ = &pooledHeapOps<D>;
        } else {
            ::new (static_cast<void *>(storage_))
                (D *)(new D(std::forward<F>(f)));
            invoke_ = &invokeHeap<D>;
            ops_ = &heapOps<D>;
        }
    }

    InlineCallback(InlineCallback &&other) noexcept { moveFrom(other); }

    InlineCallback &
    operator=(InlineCallback &&other) noexcept
    {
        if (this != &other) {
            reset();
            moveFrom(other);
        }
        return *this;
    }

    InlineCallback &
    operator=(std::nullptr_t) noexcept
    {
        reset();
        return *this;
    }

    InlineCallback(const InlineCallback &) = delete;
    InlineCallback &operator=(const InlineCallback &) = delete;

    ~InlineCallback() { reset(); }

    R
    operator()(Args... args) const
    {
        CXLMEMO_ASSERT(invoke_, "invoking an empty InlineCallback");
        return invoke_(const_cast<unsigned char *>(storage_),
                       std::forward<Args>(args)...);
    }

    explicit operator bool() const noexcept { return invoke_ != nullptr; }

    friend bool
    operator==(const InlineCallback &cb, std::nullptr_t) noexcept
    {
        return !cb;
    }

    /** @return true if the wrapped callable lives in inline storage
     *  (empty callbacks report true: they own no heap cell). */
    bool storedInline() const noexcept { return !ops_ || !ops_->onHeap; }

    void
    swap(InlineCallback &other) noexcept
    {
        InlineCallback tmp(std::move(other));
        other = std::move(*this);
        *this = std::move(tmp);
    }

  private:
    /**
     * Per-type lifetime operations. Trivially copyable callables (the
     * overwhelmingly common `this`-plus-scalars lambdas) use null
     * entries: relocation degenerates to an inlinable fixed-size
     * memcpy and destruction to nothing, so the event hot path makes
     * no indirect call besides the invocation itself.
     */
    struct Ops
    {
        void (*relocate)(void *dst, void *src); //!< null => memcpy
        void (*destroy)(void *target);          //!< null => no-op
        std::uint32_t bytes; //!< memcpy length; 0 for empty types
        bool onHeap;
    };

    template <typename D>
    static constexpr bool fitsInline =
        sizeof(D) <= InlineBytes
        && alignof(D) <= alignof(std::max_align_t)
        && std::is_nothrow_move_constructible_v<D>;

    template <typename D>
    static R
    invokeInline(void *storage, Args... args)
    {
        return (*static_cast<D *>(storage))(std::forward<Args>(args)...);
    }

    template <typename D>
    static R
    invokeHeap(void *storage, Args... args)
    {
        return (**static_cast<D **>(storage))(std::forward<Args>(args)...);
    }

    template <typename D>
    static constexpr Ops inlineOps = {
        std::is_trivially_copyable_v<D>
            ? nullptr
            : +[](void *dst, void *src) {
                  ::new (dst) D(std::move(*static_cast<D *>(src)));
                  static_cast<D *>(src)->~D();
              },
        std::is_trivially_destructible_v<D>
            ? nullptr
            : +[](void *target) { static_cast<D *>(target)->~D(); },
        // An empty type's one byte is indeterminate; copying it would
        // read uninitialised storage.
        /*bytes=*/std::is_empty_v<D> ? 0 : sizeof(D),
        /*onHeap=*/false,
    };

    /** Heap-held callables store a single owning pointer in the inline
     *  buffer; relocation steals the pointer (the memcpy path). */
    template <typename D>
    static constexpr Ops heapOps = {
        nullptr,
        [](void *target) { delete *static_cast<D **>(target); },
        /*bytes=*/sizeof(D *),
        /*onHeap=*/true,
    };

    /** As heapOps, but the cell came from poolAlloc (the common case:
     *  anything not over-aligned). */
    template <typename D>
    static constexpr Ops pooledHeapOps = {
        nullptr,
        [](void *target) {
            D *p = *static_cast<D **>(target);
            p->~D();
            poolFree(p, sizeof(D));
        },
        /*bytes=*/sizeof(D *),
        /*onHeap=*/true,
    };

    void
    moveFrom(InlineCallback &other) noexcept
    {
        if (other.invoke_) {
            if (other.ops_->relocate)
                other.ops_->relocate(storage_, other.storage_);
            else
                std::memcpy(storage_, other.storage_, other.ops_->bytes);
            invoke_ = other.invoke_;
            ops_ = other.ops_;
            other.invoke_ = nullptr;
            other.ops_ = nullptr;
        }
    }

    void
    reset() noexcept
    {
        if (invoke_) {
            if (ops_->destroy)
                ops_->destroy(storage_);
            invoke_ = nullptr;
            ops_ = nullptr;
        }
    }

    using Invoker = R (*)(void *, Args...);

    alignas(std::max_align_t) unsigned char storage_[InlineBytes];
    Invoker invoke_ = nullptr;
    const Ops *ops_ = nullptr;
};

} // namespace cxlmemo

#endif // CXLMEMO_SIM_CALLBACK_HH
