use crate::{Nf2Error, Result, Tuple, Value};

/// The type of a single attribute.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum AttrType {
    /// 4-byte integer.
    Int,
    /// Variable-length string.
    Str,
    /// 4-byte reference to another complex object.
    Link,
    /// Relation-valued attribute with its own nested schema.
    Rel(Box<RelSchema>),
}

impl AttrType {
    /// True if the attribute is atomic (not relation-valued).
    pub fn is_atomic(&self) -> bool {
        !matches!(self, AttrType::Rel(_))
    }
}

/// An attribute definition: a name and a type.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AttrDef {
    /// Attribute name (for diagnostics and reports; access is positional).
    pub name: String,
    /// Attribute type.
    pub ty: AttrType,
}

impl AttrDef {
    /// Convenience constructor.
    pub fn new(name: impl Into<String>, ty: AttrType) -> Self {
        AttrDef {
            name: name.into(),
            ty,
        }
    }
}

/// A (possibly nested) relation schema.
///
/// The benchmark's `Station` schema ([`crate::station::station_schema`]) is
/// the canonical example: a root relation with two relation-valued
/// attributes, one of which nests a further relation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RelSchema {
    /// Relation name.
    pub name: String,
    /// Attribute definitions in positional order.
    pub attrs: Vec<AttrDef>,
}

impl RelSchema {
    /// Convenience constructor.
    pub fn new(name: impl Into<String>, attrs: Vec<AttrDef>) -> Self {
        RelSchema {
            name: name.into(),
            attrs,
        }
    }

    /// Number of attributes.
    pub fn arity(&self) -> usize {
        self.attrs.len()
    }

    /// Indices of the atomic (non-relation-valued) attributes.
    pub fn atomic_attr_indices(&self) -> Vec<usize> {
        self.attrs
            .iter()
            .enumerate()
            .filter(|(_, a)| a.ty.is_atomic())
            .map(|(i, _)| i)
            .collect()
    }

    /// Looks up an attribute index by name.
    pub fn attr_index(&self, name: &str) -> Option<usize> {
        self.attrs.iter().position(|a| a.name == name)
    }

    /// The nested schema of relation-valued attribute `i`, if it is one.
    pub fn sub_schema(&self, i: usize) -> Option<&RelSchema> {
        match &self.attrs.get(i)?.ty {
            AttrType::Rel(s) => Some(s),
            _ => None,
        }
    }

    /// Maximum nesting depth (a flat relation has depth 1).
    pub fn depth(&self) -> usize {
        1 + self
            .attrs
            .iter()
            .filter_map(|a| match &a.ty {
                AttrType::Rel(s) => Some(s.depth()),
                _ => None,
            })
            .max()
            .unwrap_or(0)
    }

    /// Validates `tuple` against this schema, recursively.
    pub fn validate(&self, tuple: &Tuple) -> Result<()> {
        if tuple.arity() != self.arity() {
            return Err(Nf2Error::SchemaMismatch {
                detail: format!(
                    "relation {}: expected {} attributes, found {}",
                    self.name,
                    self.arity(),
                    tuple.arity()
                ),
            });
        }
        for (i, (v, a)) in tuple.values.iter().zip(&self.attrs).enumerate() {
            match (&a.ty, v) {
                (AttrType::Int, Value::Int(_))
                | (AttrType::Str, Value::Str(_))
                | (AttrType::Link, Value::Link(_)) => {}
                (AttrType::Rel(sub), Value::Rel(ts)) => {
                    for t in ts {
                        sub.validate(t)?;
                    }
                }
                (ty, v) => {
                    return Err(Nf2Error::SchemaMismatch {
                        detail: format!(
                            "relation {}, attribute {i} ({}): expected {ty:?}, found {}",
                            self.name,
                            a.name,
                            v.type_name()
                        ),
                    });
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Oid;

    fn schema() -> RelSchema {
        RelSchema::new(
            "R",
            vec![
                AttrDef::new("a", AttrType::Int),
                AttrDef::new("b", AttrType::Str),
                AttrDef::new(
                    "c",
                    AttrType::Rel(Box::new(RelSchema::new(
                        "S",
                        vec![
                            AttrDef::new("x", AttrType::Link),
                            AttrDef::new("y", AttrType::Int),
                        ],
                    ))),
                ),
            ],
        )
    }

    fn good_tuple() -> Tuple {
        Tuple::new(vec![
            Value::Int(1),
            Value::Str("s".into()),
            Value::Rel(vec![Tuple::new(vec![Value::Link(Oid(3)), Value::Int(4)])]),
        ])
    }

    #[test]
    fn validate_accepts_well_typed() {
        schema().validate(&good_tuple()).unwrap();
    }

    #[test]
    fn validate_rejects_wrong_arity() {
        let err = schema()
            .validate(&Tuple::new(vec![Value::Int(1)]))
            .unwrap_err();
        assert!(matches!(err, Nf2Error::SchemaMismatch { .. }));
    }

    #[test]
    fn validate_rejects_wrong_type() {
        let mut t = good_tuple();
        t.values[0] = Value::Str("oops".into());
        assert!(schema().validate(&t).is_err());
    }

    #[test]
    fn validate_recurses_into_subrelations() {
        let mut t = good_tuple();
        if let Value::Rel(ts) = &mut t.values[2] {
            ts[0].values[1] = Value::Str("bad".into());
        }
        assert!(schema().validate(&t).is_err());
    }

    #[test]
    fn index_helpers() {
        let s = schema();
        assert_eq!(s.atomic_attr_indices(), vec![0, 1]);
        assert_eq!(s.attr_index("b"), Some(1));
        assert_eq!(s.attr_index("zz"), None);
        assert_eq!(s.depth(), 2);
        assert!(s.sub_schema(2).is_some());
        assert!(s.sub_schema(0).is_none());
    }
}
