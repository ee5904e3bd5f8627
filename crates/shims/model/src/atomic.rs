//! `ModelAtomic*`: drop-in wrappers over `std::sync::atomic` whose every
//! operation is a model schedule point. With the `enable` feature off the
//! hook calls compile to nothing, leaving a transparent newtype.
//!
//! Only the method subset the workspace actually uses is exposed; extend it
//! here (not ad hoc at call sites) so every new operation stays routed.

use crate::OpKind;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};

macro_rules! model_atomic {
    ($(#[$doc:meta])* $name:ident, $inner:ty, $prim:ty) => {
        $(#[$doc])*
        #[derive(Debug, Default)]
        pub struct $name {
            inner: $inner,
        }

        impl $name {
            /// Creates a new atomic with the given initial value.
            #[must_use]
            pub const fn new(v: $prim) -> Self {
                Self { inner: <$inner>::new(v) }
            }

            #[inline]
            fn hook(&self, kind: OpKind) {
                crate::on_atomic(self as *const Self as usize, kind);
            }

            /// Atomic load (schedule point under the model).
            #[inline]
            pub fn load(&self, order: Ordering) -> $prim {
                self.hook(OpKind::Read);
                self.inner.load(order)
            }

            /// Atomic store (schedule point under the model).
            #[inline]
            pub fn store(&self, val: $prim, order: Ordering) {
                self.hook(OpKind::Write);
                self.inner.store(val, order);
            }

            /// Atomic swap (schedule point under the model).
            #[inline]
            pub fn swap(&self, val: $prim, order: Ordering) -> $prim {
                self.hook(OpKind::Rmw);
                self.inner.swap(val, order)
            }

            /// Atomic compare-exchange (schedule point under the model).
            ///
            /// # Errors
            ///
            /// Returns the observed value if it did not match `current`.
            #[inline]
            pub fn compare_exchange(
                &self,
                current: $prim,
                new: $prim,
                success: Ordering,
                failure: Ordering,
            ) -> Result<$prim, $prim> {
                self.hook(OpKind::Rmw);
                self.inner.compare_exchange(current, new, success, failure)
            }

            /// Mutable access to the value (no hook: `&mut self` proves
            /// exclusive access, so there is nothing to interleave).
            #[inline]
            pub fn get_mut(&mut self) -> &mut $prim {
                self.inner.get_mut()
            }
        }
    };
}

model_atomic! {
    /// Model-routed [`AtomicU64`].
    ModelAtomicU64, AtomicU64, u64
}

model_atomic! {
    /// Model-routed [`AtomicUsize`].
    ModelAtomicUsize, AtomicUsize, usize
}

model_atomic! {
    /// Model-routed [`AtomicBool`].
    ModelAtomicBool, AtomicBool, bool
}

macro_rules! model_fetch_ops {
    ($name:ident, $prim:ty) => {
        impl $name {
            /// Atomic add, returning the previous value.
            #[inline]
            pub fn fetch_add(&self, val: $prim, order: Ordering) -> $prim {
                self.hook(OpKind::Rmw);
                self.inner.fetch_add(val, order)
            }

            /// Atomic subtract, returning the previous value.
            #[inline]
            pub fn fetch_sub(&self, val: $prim, order: Ordering) -> $prim {
                self.hook(OpKind::Rmw);
                self.inner.fetch_sub(val, order)
            }

            /// Atomic bitwise or, returning the previous value.
            #[inline]
            pub fn fetch_or(&self, val: $prim, order: Ordering) -> $prim {
                self.hook(OpKind::Rmw);
                self.inner.fetch_or(val, order)
            }

            /// Atomic bitwise and, returning the previous value.
            #[inline]
            pub fn fetch_and(&self, val: $prim, order: Ordering) -> $prim {
                self.hook(OpKind::Rmw);
                self.inner.fetch_and(val, order)
            }

            /// Atomic maximum, returning the previous value.
            #[inline]
            pub fn fetch_max(&self, val: $prim, order: Ordering) -> $prim {
                self.hook(OpKind::Rmw);
                self.inner.fetch_max(val, order)
            }
        }
    };
}

model_fetch_ops!(ModelAtomicU64, u64);
model_fetch_ops!(ModelAtomicUsize, usize);
