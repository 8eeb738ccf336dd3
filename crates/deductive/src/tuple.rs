//! Fact tuples: the owned [`Tuple`] and the borrowed [`Row`].
//!
//! Relations store their rows flat, arity-strided in shared pages (see
//! [`crate::storage`]), and hand them out as `&Row`: a view of one row's
//! constants inside a page. `Row` is to `Tuple` what `str` is to `String`.
//! Every read method lives on `Row`, a `Tuple` dereferences to one, and a
//! function that takes `&Row` accepts `&Tuple` as well. A `Tuple` is built
//! only where a caller must own a fact ([`Row::to_tuple`]).

use crate::symbol::Interner;
use crate::value::Const;
use std::fmt;
use std::ops::Deref;

/// A ground fact tuple: a fixed-arity sequence of constants.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct Tuple(Box<[Const]>);

/// A borrowed fact tuple: one row of constants, in a relation's page or
/// in a [`Tuple`].
#[derive(PartialEq, Eq, PartialOrd, Ord, Debug)]
#[repr(transparent)]
pub struct Row([Const]);

impl Row {
    /// View a constant slice as a row.
    #[inline]
    pub fn new(consts: &[Const]) -> &Row {
        // SAFETY: `Row` is `repr(transparent)` over `[Const]`, so the two
        // reference types have the same layout and slice-length metadata,
        // and the returned reference borrows `consts` for its lifetime.
        unsafe { &*(consts as *const [Const] as *const Row) }
    }

    /// The row's arity.
    #[inline]
    pub fn arity(&self) -> usize {
        self.0.len()
    }

    /// Constant at position `i`.
    #[inline]
    pub fn get(&self, i: usize) -> Const {
        self.0[i]
    }

    /// All constants as a slice.
    #[inline]
    pub fn as_slice(&self) -> &[Const] {
        &self.0
    }

    /// Iterate over the constants.
    pub fn iter(&self) -> impl Iterator<Item = Const> + '_ {
        self.0.iter().copied()
    }

    /// Render against an interner, e.g. `(tid4, fuelType, tid_string)`.
    pub fn display<'a>(&'a self, interner: &'a Interner) -> TupleDisplay<'a> {
        TupleDisplay { t: self, interner }
    }

    /// Project the row onto the given column positions.
    pub fn project(&self, cols: &[usize]) -> Tuple {
        Tuple(cols.iter().map(|&c| self.0[c]).collect())
    }

    /// Copy the row into an owned tuple.
    pub fn to_tuple(&self) -> Tuple {
        Tuple(self.0.into())
    }
}

impl Tuple {
    /// Build a tuple from constants.
    pub fn new(consts: impl Into<Box<[Const]>>) -> Self {
        Tuple(consts.into())
    }
}

impl Deref for Tuple {
    type Target = Row;

    #[inline]
    fn deref(&self) -> &Row {
        Row::new(&self.0)
    }
}

impl From<Vec<Const>> for Tuple {
    fn from(v: Vec<Const>) -> Self {
        Tuple(v.into_boxed_slice())
    }
}

impl<const N: usize> From<[Const; N]> for Tuple {
    fn from(v: [Const; N]) -> Self {
        Tuple(Box::new(v))
    }
}

/// Helper for rendering a [`Row`] with access to the interner.
pub struct TupleDisplay<'a> {
    t: &'a Row,
    interner: &'a Interner,
}

impl fmt::Display for TupleDisplay<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, c) in self.t.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{}", c.display(self.interner))?;
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arity_get_slice() {
        let t = Tuple::from(vec![Const::Int(1), Const::Int(2)]);
        assert_eq!(t.arity(), 2);
        assert_eq!(t.get(1), Const::Int(2));
        assert_eq!(t.as_slice(), &[Const::Int(1), Const::Int(2)]);
    }

    #[test]
    fn project_selects_columns() {
        let t = Tuple::from(vec![Const::Int(10), Const::Int(20), Const::Int(30)]);
        assert_eq!(
            t.project(&[2, 0]),
            Tuple::from(vec![Const::Int(30), Const::Int(10)])
        );
    }

    #[test]
    fn display_is_parenthesised() {
        let mut i = Interner::new();
        let s = i.intern("tid4");
        let t = Tuple::from(vec![Const::Sym(s), Const::Int(1)]);
        assert_eq!(t.display(&i).to_string(), "(tid4, 1)");
    }

    #[test]
    fn tuples_compare_by_content() {
        let a = Tuple::from(vec![Const::Int(1)]);
        let b = Tuple::from(vec![Const::Int(1)]);
        assert_eq!(a, b);
    }

    #[test]
    fn rows_view_and_copy_their_constants() {
        let vals = [Const::Int(3), Const::Int(4)];
        let row = Row::new(&vals);
        let t = row.to_tuple();
        assert_eq!(row, &*t);
        assert_eq!(t.as_slice(), &vals);
        assert_eq!(row.project(&[1]), Tuple::from(vec![Const::Int(4)]));
    }
}
