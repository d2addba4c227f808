//! A small ordered JSON writer for the reports `vtsim` prints.
//!
//! The build is offline and the vendored serde is a no-op shim, so the
//! reports are written by hand — but only here. An [`Object`] keeps its
//! fields in insertion order and renders compactly (no whitespace), which
//! keeps every document byte-diffable across runs and commits.
//! [`Fixed`] writes a float with a fixed number of decimals; a plain `f64`
//! writes its shortest round-trip form. A non-finite float, which JSON
//! cannot represent, is written as `null`.
//!
//! ```
//! use vt_core::json::{Fixed, Object};
//!
//! let doc = Object::new()
//!     .field("name", "a \"b\"")
//!     .field("n", 3u32)
//!     .field("secs", Fixed(0.5, 3))
//!     .field("dead", vec![1u32, 2])
//!     .field("kind", None::<&str>)
//!     .finish();
//! assert_eq!(doc, r#"{"name":"a \"b\"","n":3,"secs":0.500,"dead":[1,2],"kind":null}"#);
//! ```

use std::fmt::Write as _;

/// A value that renders itself as JSON.
pub trait Value {
    /// Appends the JSON rendering of `self` to `out`.
    fn write_json(&self, out: &mut String);
}

/// A float written with a fixed number of decimals (`Fixed(v, 3)` renders
/// like `format!("{v:.3}")`), or `null` when it is not finite.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Fixed(pub f64, pub usize);

/// A JSON object whose fields render in the order they were added.
#[derive(Clone, Debug, Default)]
pub struct Object {
    fields: String,
}

impl Object {
    /// An empty object.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends `key: value`.
    #[must_use]
    pub fn field(mut self, key: &str, value: impl Value) -> Self {
        if !self.fields.is_empty() {
            self.fields.push(',');
        }
        key.write_json(&mut self.fields);
        self.fields.push(':');
        value.write_json(&mut self.fields);
        self
    }

    /// The rendered object.
    pub fn finish(&self) -> String {
        let mut out = String::new();
        self.write_json(&mut out);
        out
    }
}

impl Value for Object {
    fn write_json(&self, out: &mut String) {
        out.push('{');
        out.push_str(&self.fields);
        out.push('}');
    }
}

impl Value for str {
    fn write_json(&self, out: &mut String) {
        out.push('"');
        for ch in self.chars() {
            match ch {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\t' => out.push_str("\\t"),
                c if (c as u32) < 0x20 => {
                    let _ = write!(out, "\\u{:04x}", c as u32);
                }
                c => out.push(c),
            }
        }
        out.push('"');
    }
}

impl Value for String {
    fn write_json(&self, out: &mut String) {
        self.as_str().write_json(out);
    }
}

impl Value for bool {
    fn write_json(&self, out: &mut String) {
        out.push_str(if *self { "true" } else { "false" });
    }
}

macro_rules! integer_values {
    ($($t:ty),*) => {$(
        impl Value for $t {
            fn write_json(&self, out: &mut String) {
                let _ = write!(out, "{self}");
            }
        }
    )*};
}

integer_values!(u32, u64, usize);

impl Value for f64 {
    fn write_json(&self, out: &mut String) {
        if self.is_finite() {
            let _ = write!(out, "{self}");
        } else {
            out.push_str("null");
        }
    }
}

impl Value for Fixed {
    fn write_json(&self, out: &mut String) {
        let Fixed(v, decimals) = *self;
        if v.is_finite() {
            let _ = write!(out, "{v:.decimals$}");
        } else {
            out.push_str("null");
        }
    }
}

impl<T: Value> Value for Option<T> {
    fn write_json(&self, out: &mut String) {
        match self {
            Some(v) => v.write_json(out),
            None => out.push_str("null"),
        }
    }
}

impl<T: Value> Value for [T] {
    fn write_json(&self, out: &mut String) {
        out.push('[');
        for (i, v) in self.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            v.write_json(out);
        }
        out.push(']');
    }
}

impl<T: Value> Value for Vec<T> {
    fn write_json(&self, out: &mut String) {
        self.as_slice().write_json(out);
    }
}

impl<T: Value + ?Sized> Value for &T {
    fn write_json(&self, out: &mut String) {
        (**self).write_json(out);
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    fn render(v: impl Value) -> String {
        let mut out = String::new();
        v.write_json(&mut out);
        out
    }

    #[test]
    fn strings_are_escaped() {
        assert_eq!(render("a\"b\\c\nd\te"), r#""a\"b\\c\nd\te""#);
        assert_eq!(render("\u{1}\r"), r#""\u0001\u000d""#);
        assert_eq!(render("µs → ok"), "\"µs → ok\"");
    }

    #[test]
    fn fields_keep_insertion_order() {
        let doc = Object::new()
            .field("z", 1u64)
            .field("a", true)
            .field("m", "x")
            .finish();
        assert_eq!(doc, r#"{"z":1,"a":true,"m":"x"}"#);
        assert_eq!(Object::new().finish(), "{}");
    }

    #[test]
    fn nested_objects_and_arrays() {
        let inner = Object::new().field("k", 3u64);
        let doc = Object::new()
            .field("one", inner.clone())
            .field("many", vec![inner.clone(), inner])
            .field("none", Vec::<u32>::new())
            .finish();
        assert_eq!(doc, r#"{"one":{"k":3},"many":[{"k":3},{"k":3}],"none":[]}"#);
    }

    #[test]
    fn floats_are_fixed_or_shortest_and_never_non_finite() {
        assert_eq!(render(Fixed(0.1234567, 3)), "0.123");
        assert_eq!(render(Fixed(2.5, 0)), "2");
        assert_eq!(render(Fixed(7.0, 6)), "7.000000");
        assert_eq!(render(0.5f64), "0.5");
        assert_eq!(render(1.0f64), "1");
        for v in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert_eq!(render(v), "null");
            assert_eq!(render(Fixed(v, 3)), "null");
        }
    }

    #[test]
    fn options_render_null_when_absent() {
        assert_eq!(render(Some("mfcg")), r#""mfcg""#);
        assert_eq!(render(None::<u32>), "null");
    }
}
