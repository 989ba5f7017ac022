//! Tuple schemas (Definition 1 of the model): a named, ordered list of
//! typed attributes shared by every tuple of a streaming relation.

use crate::error::{Error, Result};
use crate::value::{Value, ValueType};
use std::sync::Arc;

/// One attribute of a schema.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Attribute {
    /// Attribute name, unique within the schema.
    pub name: String,
    /// Declared value domain.
    pub ty: ValueType,
}

/// An immutable tuple schema. Cheap to clone (`Arc` inside) because every
/// tuple of a stream shares one schema instance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schema {
    name: String,
    attrs: Arc<Vec<Attribute>>,
}

impl Schema {
    /// Build a schema from `(name, type)` pairs.
    ///
    /// # Errors
    /// Returns [`Error::Schema`] on duplicate attribute names or an empty
    /// attribute list.
    pub fn new(name: impl Into<String>, attrs: Vec<(&str, ValueType)>) -> Result<Schema> {
        if attrs.is_empty() {
            return Err(Error::Schema("schema needs at least one attribute".into()));
        }
        let mut seen = std::collections::HashSet::new();
        for (n, _) in &attrs {
            if !seen.insert(*n) {
                return Err(Error::Schema(format!("duplicate attribute `{n}`")));
            }
        }
        Ok(Schema {
            name: name.into(),
            attrs: Arc::new(
                attrs.into_iter().map(|(n, ty)| Attribute { name: n.to_owned(), ty }).collect(),
            ),
        })
    }

    /// The schema (relation) name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of attributes.
    pub fn arity(&self) -> usize {
        self.attrs.len()
    }

    /// All attributes in declaration order.
    pub fn attributes(&self) -> &[Attribute] {
        &self.attrs
    }

    /// Index of the attribute called `name`.
    pub fn index_of(&self, name: &str) -> Option<usize> {
        self.attrs.iter().position(|a| a.name == name)
    }

    /// Index of `name`, or a descriptive error.
    pub fn require(&self, name: &str) -> Result<usize> {
        self.index_of(name).ok_or_else(|| {
            Error::Schema(format!("schema `{}` has no attribute `{name}`", self.name))
        })
    }

    /// Check that `values` conforms to this schema: right arity, and each
    /// non-null value of the declared type.
    pub fn validate(&self, values: &[Value]) -> Result<()> {
        if values.len() != self.arity() {
            return Err(Error::Schema(format!(
                "schema `{}` expects {} attributes, tuple has {}",
                self.name,
                self.arity(),
                values.len()
            )));
        }
        for (attr, v) in self.attrs.iter().zip(values) {
            if let Some(ty) = v.value_type() {
                if ty != attr.ty {
                    return Err(Error::Schema(format!(
                        "attribute `{}` of `{}` expects {:?}, got {:?}",
                        attr.name, self.name, attr.ty, ty
                    )));
                }
            }
        }
        Ok(())
    }
}

/// A builder assembling a tuple against a schema by attribute *name*,
/// validating arity and types at [`TupleBuilder::build`].
///
/// ```
/// use bistream_types::schema::{Schema, TupleBuilder};
/// use bistream_types::value::ValueType;
/// use bistream_types::rel::Rel;
///
/// let schema = Schema::new("orders", vec![
///     ("order_id", ValueType::Int),
///     ("amount", ValueType::Float),
/// ]).unwrap();
/// let tuple = TupleBuilder::new(&schema, Rel::R, 42)
///     .set("order_id", 1001i64).unwrap()
///     .set("amount", 99.5).unwrap()
///     .build().unwrap();
/// assert_eq!(tuple.ts(), 42);
/// ```
#[derive(Debug)]
pub struct TupleBuilder<'s> {
    schema: &'s Schema,
    rel: crate::rel::Rel,
    ts: crate::time::Ts,
    values: Vec<Value>,
}

impl<'s> TupleBuilder<'s> {
    /// Start a tuple of `schema` for relation `rel` at event time `ts`.
    /// All attributes start as `Null`.
    pub fn new(schema: &'s Schema, rel: crate::rel::Rel, ts: crate::time::Ts) -> TupleBuilder<'s> {
        TupleBuilder { schema, rel, ts, values: vec![Value::Null; schema.arity()] }
    }

    /// Set attribute `name`.
    ///
    /// # Errors
    /// [`Error::Schema`] if the attribute does not exist or the value's
    /// type does not match the declaration.
    pub fn set(mut self, name: &str, value: impl Into<Value>) -> Result<TupleBuilder<'s>> {
        let idx = self.schema.require(name)?;
        let value = value.into();
        if let Some(ty) = value.value_type() {
            let declared = self.schema.attributes()[idx].ty;
            if ty != declared {
                return Err(Error::Schema(format!(
                    "attribute `{name}` of `{}` expects {declared:?}, got {ty:?}",
                    self.schema.name()
                )));
            }
        }
        self.values[idx] = value;
        Ok(self)
    }

    /// Finish the tuple (re-validating against the schema).
    pub fn build(self) -> Result<crate::tuple::Tuple> {
        self.schema.validate(&self.values)?;
        Ok(crate::tuple::Tuple::new(self.rel, self.ts, self.values))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn orders() -> Schema {
        Schema::new(
            "orders",
            vec![
                ("order_id", ValueType::Int),
                ("amount", ValueType::Float),
                ("customer", ValueType::Str),
            ],
        )
        .unwrap()
    }

    #[test]
    fn lookup_by_name() {
        let s = orders();
        assert_eq!(s.index_of("amount"), Some(1));
        assert_eq!(s.index_of("missing"), None);
        assert!(s.require("missing").is_err());
        assert_eq!(s.require("customer").unwrap(), 2);
    }

    #[test]
    fn rejects_duplicates_and_empty() {
        assert!(Schema::new("x", vec![]).is_err());
        assert!(Schema::new("x", vec![("a", ValueType::Int), ("a", ValueType::Int)]).is_err());
    }

    #[test]
    fn validate_checks_arity_and_types() {
        let s = orders();
        assert!(s.validate(&[Value::Int(1), Value::Float(2.0), Value::Str("c".into())]).is_ok());
        // null is allowed in any slot
        assert!(s.validate(&[Value::Null, Value::Null, Value::Null]).is_ok());
        // wrong arity
        assert!(s.validate(&[Value::Int(1)]).is_err());
        // wrong type
        assert!(s
            .validate(&[Value::Str("no".into()), Value::Float(2.0), Value::Str("c".into())])
            .is_err());
    }

    #[test]
    fn builder_sets_by_name_and_validates() {
        use crate::rel::Rel;
        let s = orders();
        let t = TupleBuilder::new(&s, Rel::R, 7)
            .set("order_id", 5i64)
            .unwrap()
            .set("customer", "alice")
            .unwrap()
            .build()
            .unwrap();
        assert_eq!(t.rel(), Rel::R);
        assert_eq!(t.get(0), Some(&Value::Int(5)));
        assert_eq!(t.get(1), Some(&Value::Null), "unset attribute stays null");
        assert_eq!(t.get(2), Some(&Value::Str("alice".into())));
    }

    #[test]
    fn builder_rejects_unknown_name_and_wrong_type() {
        use crate::rel::Rel;
        let s = orders();
        assert!(TupleBuilder::new(&s, Rel::R, 0).set("nope", 1i64).is_err());
        assert!(TupleBuilder::new(&s, Rel::R, 0).set("amount", "text").is_err());
    }

    #[test]
    fn clones_share_attribute_storage() {
        let a = orders();
        let b = a.clone();
        assert!(Arc::ptr_eq(&a.attrs, &b.attrs));
        assert_eq!(a, b);
    }
}
