//! Symbol table and typed identifiers.
//!
//! Scalars (including loop induction variables) are identified by [`VarId`]
//! and arrays by [`ArrayId`]. Both are cheap copyable indices into a
//! [`SymbolTable`] that owns the names and per-array metadata.

use std::collections::HashMap;
use std::fmt;

/// Identifier of a scalar variable (or loop induction variable).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct VarId(pub u32);

/// Identifier of an array variable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ArrayId(pub u32);

impl fmt::Display for VarId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

impl fmt::Display for ArrayId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "a{}", self.0)
    }
}

/// Metadata about a declared array.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArrayInfo {
    /// Source-level name.
    pub name: String,
    /// Number of dimensions. One for ordinary vectors; multi-dimensional
    /// arrays are linearized for analysis (paper §3.6).
    pub rank: usize,
    /// Declared extent of each dimension, if known. `None` marks a
    /// symbolic/unknown extent.
    pub extents: Vec<Option<i64>>,
}

/// Interner mapping names to [`VarId`]/[`ArrayId`] and back.
///
/// A `SymbolTable` is owned by a [`crate::Program`]; all identifiers appearing
/// in that program's AST resolve through it.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SymbolTable {
    vars: Vec<String>,
    var_by_name: HashMap<String, VarId>,
    arrays: Vec<ArrayInfo>,
    array_by_name: HashMap<String, ArrayId>,
}

impl SymbolTable {
    /// Creates an empty symbol table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Interns a scalar variable name, returning its id. Repeated calls with
    /// the same name return the same id.
    pub fn var(&mut self, name: &str) -> VarId {
        if let Some(&id) = self.var_by_name.get(name) {
            return id;
        }
        let id = VarId(self.vars.len() as u32);
        self.vars.push(name.to_string());
        self.var_by_name.insert(name.to_string(), id);
        id
    }

    /// Interns a rank-1 array with unknown extent.
    pub fn array(&mut self, name: &str) -> ArrayId {
        self.array_with(name, 1, vec![None])
    }

    /// Interns an array with the given rank and extents.
    ///
    /// # Panics
    ///
    /// Panics if the array was previously interned with a different rank.
    pub fn array_with(&mut self, name: &str, rank: usize, extents: Vec<Option<i64>>) -> ArrayId {
        assert_eq!(rank, extents.len(), "rank must match number of extents");
        if let Some(&id) = self.array_by_name.get(name) {
            assert_eq!(
                self.arrays[id.0 as usize].rank, rank,
                "array {name} re-declared with different rank"
            );
            return id;
        }
        let id = ArrayId(self.arrays.len() as u32);
        self.arrays.push(ArrayInfo {
            name: name.to_string(),
            rank,
            extents,
        });
        self.array_by_name.insert(name.to_string(), id);
        id
    }

    /// Looks up a scalar by name without interning.
    pub fn lookup_var(&self, name: &str) -> Option<VarId> {
        self.var_by_name.get(name).copied()
    }

    /// Looks up an array by name without interning.
    pub fn lookup_array(&self, name: &str) -> Option<ArrayId> {
        self.array_by_name.get(name).copied()
    }

    /// Name of a scalar variable.
    pub fn var_name(&self, id: VarId) -> &str {
        &self.vars[id.0 as usize]
    }

    /// Metadata of an array.
    pub fn array_info(&self, id: ArrayId) -> &ArrayInfo {
        &self.arrays[id.0 as usize]
    }

    /// Name of an array.
    pub fn array_name(&self, id: ArrayId) -> &str {
        &self.arrays[id.0 as usize].name
    }

    /// Number of interned scalar variables.
    pub fn num_vars(&self) -> usize {
        self.vars.len()
    }

    /// Number of interned arrays.
    pub fn num_arrays(&self) -> usize {
        self.arrays.len()
    }

    /// Iterates over all scalar variable ids.
    pub fn var_ids(&self) -> impl Iterator<Item = VarId> + '_ {
        (0..self.vars.len() as u32).map(VarId)
    }

    /// Iterates over all array ids.
    pub fn array_ids(&self) -> impl Iterator<Item = ArrayId> + '_ {
        (0..self.arrays.len() as u32).map(ArrayId)
    }

    /// Creates a fresh scalar whose name does not collide with any existing
    /// variable, based on `hint` (used by optimizations introducing
    /// temporaries).
    pub fn fresh_var(&mut self, hint: &str) -> VarId {
        if !self.var_by_name.contains_key(hint) {
            return self.var(hint);
        }
        for k in 0u64.. {
            let candidate = format!("{hint}{k}");
            if !self.var_by_name.contains_key(&candidate) {
                return self.var(&candidate);
            }
        }
        unreachable!("u64 counter exhausted")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn var_interning_is_idempotent() {
        let mut t = SymbolTable::new();
        let a = t.var("i");
        let b = t.var("i");
        let c = t.var("j");
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(t.var_name(a), "i");
        assert_eq!(t.num_vars(), 2);
    }

    #[test]
    fn array_interning_tracks_rank_and_extents() {
        let mut t = SymbolTable::new();
        let x = t.array_with("X", 2, vec![Some(10), None]);
        assert_eq!(t.array_info(x).rank, 2);
        assert_eq!(t.array_info(x).extents, vec![Some(10), None]);
        assert_eq!(t.array_name(x), "X");
        let x2 = t.array_with("X", 2, vec![Some(10), None]);
        assert_eq!(x, x2);
    }

    #[test]
    #[should_panic(expected = "different rank")]
    fn array_rank_mismatch_panics() {
        let mut t = SymbolTable::new();
        t.array("X");
        t.array_with("X", 2, vec![None, None]);
    }

    #[test]
    fn fresh_var_avoids_collisions() {
        let mut t = SymbolTable::new();
        t.var("t");
        t.var("t0");
        let f = t.fresh_var("t");
        assert_eq!(t.var_name(f), "t1");
        let g = t.fresh_var("u");
        assert_eq!(t.var_name(g), "u");
    }

    #[test]
    fn lookups_do_not_intern() {
        let mut t = SymbolTable::new();
        assert!(t.lookup_var("i").is_none());
        let i = t.var("i");
        assert_eq!(t.lookup_var("i"), Some(i));
        assert!(t.lookup_array("A").is_none());
        let a = t.array("A");
        assert_eq!(t.lookup_array("A"), Some(a));
    }
}
