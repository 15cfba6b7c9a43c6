//! A compact hand-rolled binary codec.
//!
//! WAL entries, RPC payloads, and kvstore values are serialized with this
//! codec instead of pulling in a serde format crate (see DESIGN.md §4).
//! Unsigned integers use LEB128 varints; signed integers use zigzag + varint;
//! composite types are encoded field by field in declaration order.
//!
//! The codec is intentionally *not* self-describing: the decoder must know the
//! type it expects, exactly like the on-wire formats of production storage
//! systems. Round-trip correctness is property-tested in this module.
//!
//! A composite type states its wire format once, with [`wire!`](crate::wire):
//! the tag of each enum variant and the order of each field list.

use std::fmt;

/// Error returned when decoding malformed or truncated input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// The input ended before the value was complete.
    UnexpectedEof,
    /// A varint ran over the maximum encodable width.
    VarintOverflow,
    /// An enum discriminant or bool byte had an unknown value.
    InvalidTag {
        /// The type being decoded.
        ty: &'static str,
        /// The byte read as its tag.
        tag: u8,
    },
    /// A string field was not valid UTF-8.
    InvalidUtf8,
    /// A length prefix exceeded the sanity limit.
    LengthTooLarge(u64),
    /// A whole-input decode left this many bytes unread.
    TrailingBytes(usize),
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::UnexpectedEof => write!(f, "unexpected end of input"),
            DecodeError::VarintOverflow => write!(f, "varint overflow"),
            DecodeError::InvalidTag { ty, tag } => write!(f, "invalid tag byte {tag:#x} for {ty}"),
            DecodeError::InvalidUtf8 => write!(f, "invalid utf-8 in string"),
            DecodeError::LengthTooLarge(n) => write!(f, "length prefix too large: {n}"),
            DecodeError::TrailingBytes(n) => write!(f, "{n} trailing bytes after the value"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// Maximum accepted length prefix for variable-size payloads (64 MiB).
///
/// This bounds allocation on corrupt input; no legitimate metadata payload in
/// this system approaches it.
const MAX_LEN: u64 = 64 << 20;

/// Types that can serialize themselves into a byte buffer.
pub trait Encode {
    /// Appends the binary representation of `self` to `buf`.
    fn encode(&self, buf: &mut Vec<u8>);

    /// Convenience wrapper returning a fresh buffer.
    fn to_bytes(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        self.encode(&mut buf);
        buf
    }
}

/// Types that can deserialize themselves from a byte slice.
///
/// `input` is advanced past the consumed bytes so values can be decoded in
/// sequence.
pub trait Decode: Sized {
    /// Reads one value from the front of `input`.
    fn decode(input: &mut &[u8]) -> Result<Self, DecodeError>;

    /// Decodes a value that must consume the entire slice.
    fn from_bytes(mut input: &[u8]) -> Result<Self, DecodeError> {
        let v = Self::decode(&mut input)?;
        if input.is_empty() {
            Ok(v)
        } else {
            Err(DecodeError::TrailingBytes(input.len()))
        }
    }
}

/// Reads an enum's one-byte tag.
pub fn read_tag(input: &mut &[u8]) -> Result<u8, DecodeError> {
    let (&b, rest) = input.split_first().ok_or(DecodeError::UnexpectedEof)?;
    *input = rest;
    Ok(b)
}

/// Writes `v` as an LEB128 varint.
pub fn write_varint(mut v: u64, buf: &mut Vec<u8>) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            buf.push(byte);
            return;
        }
        buf.push(byte | 0x80);
    }
}

/// Reads an LEB128 varint.
pub fn read_varint(input: &mut &[u8]) -> Result<u64, DecodeError> {
    let mut v: u64 = 0;
    let mut shift = 0u32;
    loop {
        let byte = read_tag(input)?;
        if shift == 63 && byte > 1 {
            return Err(DecodeError::VarintOverflow);
        }
        v |= u64::from(byte & 0x7f) << shift;
        if byte & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
        if shift > 63 {
            return Err(DecodeError::VarintOverflow);
        }
    }
}

fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

macro_rules! impl_uint {
    ($($t:ty),*) => {$(
        impl Encode for $t {
            fn encode(&self, buf: &mut Vec<u8>) {
                write_varint(u64::from(*self), buf);
            }
        }
        impl Decode for $t {
            fn decode(input: &mut &[u8]) -> Result<Self, DecodeError> {
                let v = read_varint(input)?;
                <$t>::try_from(v).map_err(|_| DecodeError::VarintOverflow)
            }
        }
    )*};
}

impl_uint!(u8, u16, u32, u64);

impl Encode for i64 {
    fn encode(&self, buf: &mut Vec<u8>) {
        write_varint(zigzag(*self), buf);
    }
}

impl Decode for i64 {
    fn decode(input: &mut &[u8]) -> Result<Self, DecodeError> {
        Ok(unzigzag(read_varint(input)?))
    }
}

impl Encode for usize {
    fn encode(&self, buf: &mut Vec<u8>) {
        write_varint(*self as u64, buf);
    }
}

impl Decode for usize {
    fn decode(input: &mut &[u8]) -> Result<Self, DecodeError> {
        let v = read_varint(input)?;
        usize::try_from(v).map_err(|_| DecodeError::VarintOverflow)
    }
}

impl Encode for bool {
    fn encode(&self, buf: &mut Vec<u8>) {
        buf.push(u8::from(*self));
    }
}

impl Decode for bool {
    fn decode(input: &mut &[u8]) -> Result<Self, DecodeError> {
        match read_tag(input)? {
            0 => Ok(false),
            1 => Ok(true),
            tag => Err(DecodeError::InvalidTag { ty: "bool", tag }),
        }
    }
}

/// Writes `bytes` with a length prefix: the form of both `Vec<u8>` and
/// `String`.
fn write_bytes(bytes: &[u8], buf: &mut Vec<u8>) {
    write_varint(bytes.len() as u64, buf);
    buf.extend_from_slice(bytes);
}

impl Encode for String {
    fn encode(&self, buf: &mut Vec<u8>) {
        write_bytes(self.as_bytes(), buf);
    }
}

impl Decode for String {
    fn decode(input: &mut &[u8]) -> Result<Self, DecodeError> {
        let bytes = Vec::<u8>::decode(input)?;
        String::from_utf8(bytes).map_err(|_| DecodeError::InvalidUtf8)
    }
}

impl Encode for Vec<u8> {
    fn encode(&self, buf: &mut Vec<u8>) {
        write_bytes(self, buf);
    }
}

impl Decode for Vec<u8> {
    fn decode(input: &mut &[u8]) -> Result<Self, DecodeError> {
        let len = read_varint(input)?;
        if len > MAX_LEN {
            return Err(DecodeError::LengthTooLarge(len));
        }
        let len = len as usize;
        if input.len() < len {
            return Err(DecodeError::UnexpectedEof);
        }
        let (head, rest) = input.split_at(len);
        *input = rest;
        Ok(head.to_vec())
    }
}

/// A box is invisible on the wire.
impl<T: Encode> Encode for Box<T> {
    fn encode(&self, buf: &mut Vec<u8>) {
        (**self).encode(buf);
    }
}

impl<T: Decode> Decode for Box<T> {
    fn decode(input: &mut &[u8]) -> Result<Self, DecodeError> {
        T::decode(input).map(Box::new)
    }
}

impl<T: Encode> Encode for Option<T> {
    fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            None => buf.push(0),
            Some(v) => {
                buf.push(1);
                v.encode(buf);
            }
        }
    }
}

impl<T: Decode> Decode for Option<T> {
    fn decode(input: &mut &[u8]) -> Result<Self, DecodeError> {
        match read_tag(input)? {
            0 => Ok(None),
            1 => Ok(Some(T::decode(input)?)),
            tag => Err(DecodeError::InvalidTag { ty: "Option", tag }),
        }
    }
}

/// Encodes a sequence of already-encodable items with a length prefix.
impl<T: Encode + EncodeListItem> Encode for [T] {
    fn encode(&self, buf: &mut Vec<u8>) {
        write_varint(self.len() as u64, buf);
        for item in self {
            item.encode(buf);
        }
    }
}

impl<T: Encode + EncodeListItem> Encode for Vec<T> {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.as_slice().encode(buf);
    }
}

impl<T: Decode + EncodeListItem> Decode for Vec<T> {
    fn decode(input: &mut &[u8]) -> Result<Self, DecodeError> {
        let len = read_varint(input)?;
        if len > MAX_LEN {
            return Err(DecodeError::LengthTooLarge(len));
        }
        let mut out = Vec::with_capacity(usize::try_from(len).unwrap_or(0).min(1024));
        for _ in 0..len {
            out.push(T::decode(input)?);
        }
        Ok(out)
    }
}

/// Marker trait distinguishing list-element types from `u8`.
///
/// `Vec<u8>` has a dedicated compact impl above; all other `Vec<T>` encodings
/// go through the generic list impl. Implement this marker for any type that
/// appears inside a `Vec`.
pub trait EncodeListItem {}

impl EncodeListItem for String {}
impl EncodeListItem for u64 {}
impl EncodeListItem for i64 {}
impl EncodeListItem for u32 {}
impl<A, B> EncodeListItem for (A, B) {}
impl<A, B, C> EncodeListItem for (A, B, C) {}

impl<A: Encode, B: Encode> Encode for (A, B) {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.0.encode(buf);
        self.1.encode(buf);
    }
}

impl<A: Decode, B: Decode> Decode for (A, B) {
    fn decode(input: &mut &[u8]) -> Result<Self, DecodeError> {
        Ok((A::decode(input)?, B::decode(input)?))
    }
}

impl<A: Encode, B: Encode, C: Encode> Encode for (A, B, C) {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.0.encode(buf);
        self.1.encode(buf);
        self.2.encode(buf);
    }
}

impl<A: Decode, B: Decode, C: Decode> Decode for (A, B, C) {
    fn decode(input: &mut &[u8]) -> Result<Self, DecodeError> {
        Ok((A::decode(input)?, B::decode(input)?, C::decode(input)?))
    }
}

/// Declares a type's wire format once: generates its [`Encode`], [`Decode`]
/// and [`EncodeListItem`] impls from one list of tags and fields.
///
/// ```
/// # use cfs_types::codec::{Decode, Encode};
/// #[derive(Debug, PartialEq)]
/// struct Id(u64);
/// cfs_types::wire!(struct Id(raw));
///
/// #[derive(Debug, PartialEq)]
/// struct Entry {
///     name: String,
///     ino: Id,
/// }
/// cfs_types::wire!(struct Entry { name, ino });
///
/// #[derive(Debug, PartialEq)]
/// enum Msg {
///     Get(Id),
///     Scan { dir: u64, limit: u32 },
///     Ping,
/// }
/// cfs_types::wire!(enum Msg {
///     0 => Get(id),
///     1 => Scan { dir, limit },
///     3 => Ping,
/// } retired 2);
///
/// let m = Msg::Scan { dir: 7, limit: 100 };
/// assert_eq!(m.to_bytes(), [1, 7, 100]);
/// assert_eq!(Msg::from_bytes(&m.to_bytes()), Ok(m));
/// assert!(Msg::from_bytes(&[2]).is_err());
/// ```
///
/// A struct is its listed fields in order. An enum is its variant's tag as
/// one byte, then the variant's fields in order. Each field is named once
/// and takes its type from the type's own definition. A tag is never
/// reused: a variant that leaves the format lists its tag after `retired`,
/// and a duplicate tag or a reused retired one fails to compile:
///
/// ```compile_fail
/// enum Msg { Get(u64), Ping }
/// cfs_types::wire!(enum Msg { 0 => Get(id), 2 => Ping } retired 2);
/// ```
///
/// ```compile_fail
/// enum Msg { Get(u64), Ping }
/// cfs_types::wire!(enum Msg { 0 => Get(id), 0 => Ping });
/// ```
#[macro_export]
macro_rules! wire {
    (@field $input:ident $field:ident) => {
        $crate::codec::Decode::decode($input)?
    };
    (struct $ty:ident { $($field:ident),* $(,)? }) => {
        impl $crate::codec::Encode for $ty {
            fn encode(&self, buf: &mut Vec<u8>) {
                $( $crate::codec::Encode::encode(&self.$field, buf); )*
            }
        }
        impl $crate::codec::Decode for $ty {
            fn decode(input: &mut &[u8]) -> Result<Self, $crate::codec::DecodeError> {
                Ok($ty { $( $field: $crate::codec::Decode::decode(input)?, )* })
            }
        }
        impl $crate::codec::EncodeListItem for $ty {}
    };
    (struct $ty:ident ( $($field:ident),* $(,)? )) => {
        impl $crate::codec::Encode for $ty {
            fn encode(&self, buf: &mut Vec<u8>) {
                let $ty($($field),*) = self;
                $( $crate::codec::Encode::encode($field, buf); )*
            }
        }
        impl $crate::codec::Decode for $ty {
            fn decode(input: &mut &[u8]) -> Result<Self, $crate::codec::DecodeError> {
                Ok($ty($( $crate::wire!(@field input $field) ),*))
            }
        }
        impl $crate::codec::EncodeListItem for $ty {}
    };
    (enum $ty:ident {
        $( $tag:literal => $variant:ident
            $( ( $($tfield:ident),* $(,)? ) )?
            $( { $($sfield:ident),* $(,)? } )?
        ),* $(,)?
    } $(retired $($retired:literal),+)?) => {
        impl $crate::codec::Encode for $ty {
            fn encode(&self, buf: &mut Vec<u8>) {
                match self {
                    $( $ty::$variant $( ( $($tfield),* ) )? $( { $($sfield),* } )? => {
                        buf.push($tag);
                        $($( $crate::codec::Encode::encode($tfield, buf); )*)?
                        $($( $crate::codec::Encode::encode($sfield, buf); )*)?
                    } )*
                }
            }
        }
        impl $crate::codec::Decode for $ty {
            // A duplicate tag, or a retired one reused, is an unreachable arm.
            #[deny(unreachable_patterns)]
            fn decode(input: &mut &[u8]) -> Result<Self, $crate::codec::DecodeError> {
                let invalid = |tag| $crate::codec::DecodeError::InvalidTag {
                    ty: stringify!($ty),
                    tag,
                };
                Ok(match $crate::codec::read_tag(input)? {
                    $( $tag => $ty::$variant
                        $( ( $( $crate::wire!(@field input $tfield) ),* ) )?
                        $( { $( $sfield: $crate::codec::Decode::decode(input)?, )* } )?, )*
                    $($( $retired => return Err(invalid($retired)), )+)?
                    tag => return Err(invalid(tag)),
                })
            }
        }
        impl $crate::codec::EncodeListItem for $ty {}
    };
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn varint_small_values_are_one_byte() {
        for v in 0..128u64 {
            let mut buf = Vec::new();
            write_varint(v, &mut buf);
            assert_eq!(buf.len(), 1);
        }
    }

    #[test]
    fn varint_rejects_truncated_input() {
        let buf = vec![0x80u8, 0x80];
        let mut input = buf.as_slice();
        assert_eq!(read_varint(&mut input), Err(DecodeError::UnexpectedEof));
    }

    #[test]
    fn varint_rejects_overflow() {
        // 10 continuation bytes with high bits would exceed 64 bits.
        let buf = vec![0xffu8; 10];
        let mut input = buf.as_slice();
        assert_eq!(read_varint(&mut input), Err(DecodeError::VarintOverflow));
    }

    #[test]
    fn option_round_trip() {
        let some: Option<u64> = Some(99);
        let none: Option<u64> = None;
        let mut buf = Vec::new();
        some.encode(&mut buf);
        none.encode(&mut buf);
        let mut input = buf.as_slice();
        assert_eq!(Option::<u64>::decode(&mut input).unwrap(), Some(99));
        assert_eq!(Option::<u64>::decode(&mut input).unwrap(), None);
    }

    #[test]
    fn string_rejects_invalid_utf8() {
        let mut buf = Vec::new();
        vec![0xffu8, 0xfe].encode(&mut buf);
        let mut input = buf.as_slice();
        assert_eq!(String::decode(&mut input), Err(DecodeError::InvalidUtf8));
    }

    #[test]
    fn bytes_rejects_absurd_length() {
        let mut buf = Vec::new();
        write_varint(u64::MAX, &mut buf);
        let mut input = buf.as_slice();
        assert!(matches!(
            Vec::<u8>::decode(&mut input),
            Err(DecodeError::LengthTooLarge(_))
        ));
    }

    #[test]
    fn decode_errors_say_what_broke() {
        assert_eq!(
            u64::from_bytes(&[5, 1, 2, 3]),
            Err(DecodeError::TrailingBytes(3))
        );
        assert_eq!(
            bool::from_bytes(&[2]),
            Err(DecodeError::InvalidTag { ty: "bool", tag: 2 })
        );
        let err = crate::FsError::from_bytes(&[17]).unwrap_err();
        assert_eq!(
            err,
            DecodeError::InvalidTag {
                ty: "FsError",
                tag: 17
            }
        );
        assert_eq!(err.to_string(), "invalid tag byte 0x11 for FsError");
    }

    proptest! {
        #[test]
        fn prop_u64_round_trip(v: u64) {
            let mut buf = Vec::new();
            v.encode(&mut buf);
            let mut input = buf.as_slice();
            prop_assert_eq!(u64::decode(&mut input).unwrap(), v);
            prop_assert!(input.is_empty());
        }

        #[test]
        fn prop_i64_round_trip(v: i64) {
            let mut buf = Vec::new();
            v.encode(&mut buf);
            let mut input = buf.as_slice();
            prop_assert_eq!(i64::decode(&mut input).unwrap(), v);
        }

        #[test]
        fn prop_string_round_trip(s in ".*") {
            let s = s.to_string();
            let mut buf = Vec::new();
            s.encode(&mut buf);
            let mut input = buf.as_slice();
            prop_assert_eq!(String::decode(&mut input).unwrap(), s);
        }

        #[test]
        fn prop_bytes_round_trip(v: Vec<u8>) {
            let mut buf = Vec::new();
            v.encode(&mut buf);
            let mut input = buf.as_slice();
            prop_assert_eq!(Vec::<u8>::decode(&mut input).unwrap(), v);
        }

        #[test]
        fn prop_decoder_never_panics(v: Vec<u8>) {
            // Feeding arbitrary bytes to every decoder must error, not panic.
            let mut i1 = v.as_slice();
            let _ = u64::decode(&mut i1);
            let mut i2 = v.as_slice();
            let _ = String::decode(&mut i2);
            let mut i3 = v.as_slice();
            let _ = Vec::<u8>::decode(&mut i3);
            let mut i4 = v.as_slice();
            let _ = Option::<u64>::decode(&mut i4);
        }

        #[test]
        fn prop_zigzag_round_trip(v: i64) {
            prop_assert_eq!(unzigzag(zigzag(v)), v);
        }
    }
}
