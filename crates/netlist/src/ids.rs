//! Typed indices into a module's device, net and port arenas.

use std::fmt;

use serde::{Deserialize, Serialize};

macro_rules! arena_id {
    ($(#[$doc:meta])* $name:ident, $prefix:literal) => {
        $(#[$doc])*
        #[derive(
            Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize,
        )]
        #[serde(transparent)]
        pub struct $name(u32);

        impl $name {
            /// Creates an id from a raw arena index.
            #[inline]
            pub const fn new(index: u32) -> Self {
                $name(index)
            }

            /// The raw arena index.
            #[inline]
            pub const fn index(self) -> usize {
                self.0 as usize
            }
        }

        impl From<$name> for u32 {
            #[inline]
            fn from(id: $name) -> u32 {
                id.0
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($prefix, "{}"), self.0)
            }
        }
    };
}

arena_id!(
    /// Index of a [`Device`](crate::Device) within its module.
    DeviceId,
    "d"
);
arena_id!(
    /// Index of a [`Net`](crate::Net) within its module.
    NetId,
    "n"
);
arena_id!(
    /// Index of a [`Port`](crate::Port) within its module.
    PortId,
    "p"
);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_index() {
        assert_eq!(DeviceId::new(7).index(), 7);
        assert_eq!(NetId::new(0).index(), 0);
        assert_eq!(PortId::new(42).index(), 42);
    }

    #[test]
    fn ids_are_ordered_and_displayable() {
        assert!(DeviceId::new(1) < DeviceId::new(2));
        assert_eq!(DeviceId::new(3).to_string(), "d3");
        assert_eq!(NetId::new(3).to_string(), "n3");
        assert_eq!(PortId::new(3).to_string(), "p3");
    }
}
