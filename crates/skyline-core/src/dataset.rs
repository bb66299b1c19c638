//! Columnar dataset storage.
//!
//! Datasets are stored column-wise: one `Vec<f64>` per numeric dimension and one
//! `Vec<ValueId>` per nominal dimension. Skyline evaluation is dominated by pairwise
//! dominance tests that touch every dimension of two rows, and a columnar layout keeps
//! those accesses branch-light and cache-friendly, while nominal columns stay compact
//! (`u16` per cell).

use crate::error::{Result, SkylineError};
use crate::schema::{DimensionKind, Schema};
use crate::value::{PointId, ValueId};

/// A single cell value used when building datasets row by row.
#[derive(Debug, Clone, PartialEq)]
pub enum RowValue {
    /// Value for a numeric dimension (smaller is better).
    Num(f64),
    /// Value for a nominal dimension, by label. New labels are interned into the domain.
    Label(String),
    /// Value for a nominal dimension, by pre-interned value id.
    Id(ValueId),
}

impl From<f64> for RowValue {
    fn from(v: f64) -> Self {
        RowValue::Num(v)
    }
}

impl From<&str> for RowValue {
    fn from(v: &str) -> Self {
        RowValue::Label(v.to_string())
    }
}

impl From<String> for RowValue {
    fn from(v: String) -> Self {
        RowValue::Label(v)
    }
}

/// Immutable, columnar dataset.
///
/// Rows are addressed by [`PointId`] in insertion order. Numeric columns are indexed by the
/// *numeric index* (position among numeric dimensions) and nominal columns by the *nominal
/// index* (position among nominal dimensions), mirroring [`Schema`].
#[derive(Debug, Clone, PartialEq)]
pub struct Dataset {
    schema: Schema,
    numeric_cols: Vec<Vec<f64>>,
    nominal_cols: Vec<Vec<ValueId>>,
    len: usize,
}

/// Rejects NaN and ±∞ in numeric cells. Every SFS variant presorts by a score that must be
/// monotone in dominance; a NaN score has no place in that order, so a single non-finite
/// cell would make the sorted scans disagree with BNL.
fn check_finite(schema: &Schema, numeric_index: usize, v: f64) -> Result<()> {
    if v.is_finite() {
        return Ok(());
    }
    let name = schema
        .numeric_dims()
        .get(numeric_index)
        .and_then(|&i| schema.dimension(i))
        .map(|d| d.name().to_string())
        .unwrap_or_default();
    Err(SkylineError::InvalidArgument(format!(
        "numeric dimension `{name}` only accepts finite values, got {v}"
    )))
}

impl Dataset {
    /// Creates an empty dataset for `schema`.
    pub fn empty(schema: Schema) -> Self {
        let numeric_cols = vec![Vec::new(); schema.numeric_count()];
        let nominal_cols = vec![Vec::new(); schema.nominal_count()];
        Self {
            schema,
            numeric_cols,
            nominal_cols,
            len: 0,
        }
    }

    /// Builds a dataset directly from pre-assembled columns.
    ///
    /// `numeric_cols[j]` must correspond to the `j`-th numeric dimension of `schema` and
    /// `nominal_cols[j]` to the `j`-th nominal dimension; all columns must share one length.
    /// Numeric cells must be finite.
    pub fn from_columns(
        schema: Schema,
        numeric_cols: Vec<Vec<f64>>,
        nominal_cols: Vec<Vec<ValueId>>,
    ) -> Result<Self> {
        if numeric_cols.len() != schema.numeric_count()
            || nominal_cols.len() != schema.nominal_count()
        {
            return Err(SkylineError::RowShapeMismatch {
                expected: schema.arity(),
                got: numeric_cols.len() + nominal_cols.len(),
            });
        }
        let len = numeric_cols
            .first()
            .map(Vec::len)
            .or_else(|| nominal_cols.first().map(Vec::len))
            .unwrap_or(0);
        for (j, col) in numeric_cols.iter().enumerate() {
            if col.len() != len {
                return Err(SkylineError::InvalidArgument(
                    "ragged numeric columns".into(),
                ));
            }
            for &v in col {
                check_finite(&schema, j, v)?;
            }
        }
        for (j, col) in nominal_cols.iter().enumerate() {
            if col.len() != len {
                return Err(SkylineError::InvalidArgument(
                    "ragged nominal columns".into(),
                ));
            }
            let card = schema.nominal_domain(j).map_or(0, |d| d.cardinality());
            if let Some(&v) = col.iter().find(|&&v| (v as usize) >= card) {
                let name = schema
                    .dimension(schema.schema_index_of_nominal(j).unwrap_or(0))
                    .map(|d| d.name().to_string())
                    .unwrap_or_default();
                return Err(SkylineError::ValueOutOfDomain {
                    dimension: name,
                    value: v as u32,
                    cardinality: card,
                });
            }
        }
        Ok(Self {
            schema,
            numeric_cols,
            nominal_cols,
            len,
        })
    }

    /// The dataset schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of rows (`N` / `|D|` in the paper).
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the dataset has no rows.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Iterator over all point ids `0..len`.
    pub fn point_ids(&self) -> impl Iterator<Item = PointId> + '_ {
        0..self.len as PointId
    }

    /// Value of row `p` in the `j`-th numeric dimension.
    #[inline]
    pub fn numeric(&self, p: PointId, numeric_index: usize) -> f64 {
        self.numeric_cols[numeric_index][p as usize]
    }

    /// Value id of row `p` in the `j`-th nominal dimension.
    #[inline]
    pub fn nominal(&self, p: PointId, nominal_index: usize) -> ValueId {
        self.nominal_cols[nominal_index][p as usize]
    }

    /// The whole `j`-th numeric column.
    pub fn numeric_column(&self, numeric_index: usize) -> &[f64] {
        &self.numeric_cols[numeric_index]
    }

    /// The whole `j`-th nominal column.
    pub fn nominal_column(&self, nominal_index: usize) -> &[ValueId] {
        &self.nominal_cols[nominal_index]
    }

    /// Label of row `p`'s value in the `j`-th nominal dimension (for display).
    pub fn nominal_label(&self, p: PointId, nominal_index: usize) -> &str {
        let id = self.nominal(p, nominal_index);
        self.schema
            .nominal_domain(nominal_index)
            .and_then(|d| d.label(id))
            .unwrap_or("<unknown>")
    }

    /// Appends a row given values for the numeric dimensions (in numeric-index order) and
    /// value ids for the nominal dimensions (in nominal-index order). Returns the new row id.
    ///
    /// Non-finite numeric values (NaN, ±∞) are rejected with
    /// [`SkylineError::InvalidArgument`]; every insert path of the engines and services
    /// funnels through here.
    pub fn push_row_ids(&mut self, numeric: &[f64], nominal: &[ValueId]) -> Result<PointId> {
        if numeric.len() != self.schema.numeric_count()
            || nominal.len() != self.schema.nominal_count()
        {
            return Err(SkylineError::RowShapeMismatch {
                expected: self.schema.arity(),
                got: numeric.len() + nominal.len(),
            });
        }
        for (j, &v) in numeric.iter().enumerate() {
            check_finite(&self.schema, j, v)?;
        }
        for (j, &v) in nominal.iter().enumerate() {
            let card = self.schema.nominal_domain(j).map_or(0, |d| d.cardinality());
            if (v as usize) >= card {
                let name = self
                    .schema
                    .dimension(self.schema.schema_index_of_nominal(j).unwrap_or(0))
                    .map(|d| d.name().to_string())
                    .unwrap_or_default();
                return Err(SkylineError::ValueOutOfDomain {
                    dimension: name,
                    value: v as u32,
                    cardinality: card,
                });
            }
        }
        for (col, &v) in self.numeric_cols.iter_mut().zip(numeric) {
            col.push(v);
        }
        for (col, &v) in self.nominal_cols.iter_mut().zip(nominal) {
            col.push(v);
        }
        let id = self.len as PointId;
        self.len += 1;
        Ok(id)
    }

    /// Builds a new dataset holding exactly the rows of `keep`, renumbered in the given
    /// order — the dataset-level half of physical compaction (the block-level half is
    /// [`crate::kernel::PointBlock::compacted`], whose remap's surviving old ids are the
    /// natural `keep` list).
    ///
    /// Out-of-range ids panic (the caller derives `keep` from this dataset's own liveness, so
    /// a bad id is a logic error, not input validation).
    pub fn retained(&self, keep: &[PointId]) -> Self {
        let numeric_cols = self
            .numeric_cols
            .iter()
            .map(|col| keep.iter().map(|&p| col[p as usize]).collect())
            .collect();
        let nominal_cols = self
            .nominal_cols
            .iter()
            .map(|col| keep.iter().map(|&p| col[p as usize]).collect())
            .collect();
        Self {
            schema: self.schema.clone(),
            numeric_cols,
            nominal_cols,
            len: keep.len(),
        }
    }

    /// Counts how many rows carry each value of the `j`-th nominal dimension.
    ///
    /// Index `v` of the returned vector is the frequency of value id `v`. Used to pick the
    /// paper's default template ("most frequent value preferred") and the popular values kept
    /// by the truncated IPO tree.
    pub fn nominal_value_frequencies(&self, nominal_index: usize) -> Vec<usize> {
        let card = self
            .schema
            .nominal_domain(nominal_index)
            .map_or(0, |d| d.cardinality());
        let mut freq = vec![0usize; card];
        for &v in &self.nominal_cols[nominal_index] {
            freq[v as usize] += 1;
        }
        freq
    }

    /// The value ids of the `j`-th nominal dimension sorted by decreasing frequency.
    pub fn values_by_frequency(&self, nominal_index: usize) -> Vec<ValueId> {
        let freq = self.nominal_value_frequencies(nominal_index);
        let mut ids: Vec<ValueId> = (0..freq.len() as ValueId).collect();
        ids.sort_by_key(|&v| std::cmp::Reverse(freq[v as usize]));
        ids
    }

    /// Approximate in-memory footprint of the raw data in bytes (used for the storage plots).
    pub fn approximate_bytes(&self) -> usize {
        self.numeric_cols
            .iter()
            .map(|c| c.len() * std::mem::size_of::<f64>())
            .sum::<usize>()
            + self
                .nominal_cols
                .iter()
                .map(|c| c.len() * std::mem::size_of::<ValueId>())
                .sum::<usize>()
    }
}

/// Row-oriented builder that accepts labels and interns them into the schema domains.
///
/// Use this for hand-written examples and tests; bulk generators should assemble columns and
/// call [`Dataset::from_columns`] instead.
#[derive(Debug, Clone)]
pub struct DatasetBuilder {
    schema: Schema,
    rows_numeric: Vec<Vec<f64>>,
    rows_nominal: Vec<Vec<ValueId>>,
}

impl DatasetBuilder {
    /// Starts building a dataset with the given schema.
    pub fn new(schema: Schema) -> Self {
        Self {
            schema,
            rows_numeric: Vec::new(),
            rows_nominal: Vec::new(),
        }
    }

    /// Appends one row. `values` must supply one [`RowValue`] per schema dimension, in schema
    /// order. Nominal labels that are not yet part of the domain are interned on the fly.
    /// Non-finite numeric values (NaN, ±∞) are rejected with [`SkylineError::InvalidArgument`].
    pub fn push_row<I, V>(&mut self, values: I) -> Result<&mut Self>
    where
        I: IntoIterator<Item = V>,
        V: Into<RowValue>,
    {
        let values: Vec<RowValue> = values.into_iter().map(Into::into).collect();
        if values.len() != self.schema.arity() {
            return Err(SkylineError::RowShapeMismatch {
                expected: self.schema.arity(),
                got: values.len(),
            });
        }
        let mut numeric = Vec::with_capacity(self.schema.numeric_count());
        let mut nominal = Vec::with_capacity(self.schema.nominal_count());
        for (i, value) in values.into_iter().enumerate() {
            let dim_name = self
                .schema
                .dimension(i)
                .map(|d| d.name().to_string())
                .unwrap_or_default();
            let kind_is_numeric = self
                .schema
                .dimension(i)
                .map(|d| matches!(d.kind(), DimensionKind::Numeric))
                .unwrap_or(false);
            match (value, kind_is_numeric) {
                (RowValue::Num(v), true) => {
                    check_finite(&self.schema, numeric.len(), v)?;
                    numeric.push(v);
                }
                (RowValue::Label(label), false) => {
                    let dim = self.schema.dimension_mut(i).expect("dimension exists");
                    let id = dim.domain_mut().expect("nominal dimension").intern(label);
                    nominal.push(id);
                }
                (RowValue::Id(id), false) => nominal.push(id),
                (RowValue::Num(_), false) => {
                    return Err(SkylineError::KindMismatch {
                        dimension: dim_name,
                        detail: "numeric value supplied for a nominal dimension".into(),
                    })
                }
                (v, true) => {
                    return Err(SkylineError::KindMismatch {
                        dimension: dim_name,
                        detail: format!("nominal value {v:?} supplied for a numeric dimension"),
                    })
                }
            }
        }
        self.rows_numeric.push(numeric);
        self.rows_nominal.push(nominal);
        Ok(self)
    }

    /// Number of rows pushed so far.
    pub fn len(&self) -> usize {
        self.rows_numeric.len()
    }

    /// True when no rows have been pushed yet.
    pub fn is_empty(&self) -> bool {
        self.rows_numeric.is_empty()
    }

    /// Finalizes the builder into a columnar [`Dataset`].
    pub fn build(self) -> Result<Dataset> {
        let n = self.rows_numeric.len();
        let mut numeric_cols = vec![Vec::with_capacity(n); self.schema.numeric_count()];
        let mut nominal_cols = vec![Vec::with_capacity(n); self.schema.nominal_count()];
        for row in &self.rows_numeric {
            for (j, &v) in row.iter().enumerate() {
                numeric_cols[j].push(v);
            }
        }
        for row in &self.rows_nominal {
            for (j, &v) in row.iter().enumerate() {
                nominal_cols[j].push(v);
            }
        }
        Dataset::from_columns(self.schema, numeric_cols, nominal_cols)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Dimension;

    fn schema() -> Schema {
        Schema::new(vec![
            Dimension::numeric("price"),
            Dimension::numeric("class-neg"),
            Dimension::nominal_with_labels("group", Vec::<String>::new()),
        ])
        .unwrap()
    }

    #[test]
    fn builder_interns_labels_and_builds_columns() {
        let mut b = DatasetBuilder::new(schema());
        b.push_row([
            RowValue::Num(1600.0),
            RowValue::Num(-4.0),
            RowValue::Label("T".into()),
        ])
        .unwrap();
        b.push_row([
            RowValue::Num(2400.0),
            RowValue::Num(-1.0),
            RowValue::Label("T".into()),
        ])
        .unwrap();
        b.push_row([
            RowValue::Num(3000.0),
            RowValue::Num(-5.0),
            RowValue::Label("H".into()),
        ])
        .unwrap();
        let d = b.build().unwrap();
        assert_eq!(d.len(), 3);
        assert_eq!(d.numeric(0, 0), 1600.0);
        assert_eq!(d.numeric(2, 1), -5.0);
        assert_eq!(d.nominal(0, 0), d.nominal(1, 0));
        assert_ne!(d.nominal(0, 0), d.nominal(2, 0));
        assert_eq!(d.nominal_label(2, 0), "H");
    }

    #[test]
    fn builder_rejects_bad_arity_and_kinds() {
        let mut b = DatasetBuilder::new(schema());
        assert!(matches!(
            b.push_row([RowValue::Num(1.0)]),
            Err(SkylineError::RowShapeMismatch {
                expected: 3,
                got: 1
            })
        ));
        assert!(matches!(
            b.push_row([
                RowValue::Num(1.0),
                RowValue::Label("x".into()),
                RowValue::Label("T".into())
            ]),
            Err(SkylineError::KindMismatch { .. })
        ));
        assert!(matches!(
            b.push_row([RowValue::Num(1.0), RowValue::Num(2.0), RowValue::Num(3.0)]),
            Err(SkylineError::KindMismatch { .. })
        ));
    }

    #[test]
    fn from_columns_validates_shape() {
        let schema = schema();
        let err = Dataset::from_columns(schema.clone(), vec![vec![1.0]], vec![]).unwrap_err();
        assert!(matches!(err, SkylineError::RowShapeMismatch { .. }));

        let err = Dataset::from_columns(
            schema.clone(),
            vec![vec![1.0], vec![2.0, 3.0]],
            vec![vec![0]],
        )
        .unwrap_err();
        assert!(matches!(err, SkylineError::InvalidArgument(_)));
    }

    #[test]
    fn from_columns_validates_domain() {
        let schema = Schema::new(vec![
            Dimension::numeric("x"),
            Dimension::nominal_with_labels("g", ["a", "b"]),
        ])
        .unwrap();
        let err = Dataset::from_columns(schema, vec![vec![1.0]], vec![vec![5]]).unwrap_err();
        assert!(matches!(
            err,
            SkylineError::ValueOutOfDomain { value: 5, .. }
        ));
    }

    #[test]
    fn push_row_ids_appends() {
        let schema = Schema::new(vec![
            Dimension::numeric("x"),
            Dimension::nominal_with_labels("g", ["a", "b"]),
        ])
        .unwrap();
        let mut d = Dataset::empty(schema);
        assert_eq!(d.push_row_ids(&[1.0], &[1]).unwrap(), 0);
        assert_eq!(d.push_row_ids(&[2.0], &[0]).unwrap(), 1);
        assert!(d.push_row_ids(&[2.0], &[7]).is_err());
        assert!(d.push_row_ids(&[2.0, 1.0], &[0]).is_err());
        assert_eq!(d.len(), 2);
        assert_eq!(d.nominal(0, 0), 1);
    }

    #[test]
    fn non_finite_numeric_cells_are_rejected_at_ingress() {
        let schema = Schema::new(vec![
            Dimension::numeric("x"),
            Dimension::nominal_with_labels("g", ["a", "b"]),
        ])
        .unwrap();
        let mut d = Dataset::empty(schema.clone());
        let mut b = DatasetBuilder::new(schema.clone());
        for v in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert!(matches!(
                d.push_row_ids(&[v], &[0]),
                Err(SkylineError::InvalidArgument(_))
            ));
            assert!(matches!(
                b.push_row([RowValue::Num(v), "a".into()]),
                Err(SkylineError::InvalidArgument(_))
            ));
            assert!(matches!(
                Dataset::from_columns(schema.clone(), vec![vec![1.0, v]], vec![vec![0, 1]]),
                Err(SkylineError::InvalidArgument(_))
            ));
        }
        assert!(
            d.is_empty(),
            "a rejected row leaves no partial cells behind"
        );
        assert!(b.is_empty());
        assert_eq!(d.push_row_ids(&[f64::MAX], &[1]).unwrap(), 0);
    }

    #[test]
    fn retained_renumbers_rows_in_order() {
        let schema = Schema::new(vec![
            Dimension::numeric("x"),
            Dimension::nominal_with_labels("g", ["a", "b", "c"]),
        ])
        .unwrap();
        let d = Dataset::from_columns(
            schema,
            vec![vec![1.0, 2.0, 3.0, 4.0]],
            vec![vec![0, 1, 2, 1]],
        )
        .unwrap();
        let kept = d.retained(&[0, 2, 3]);
        assert_eq!(kept.len(), 3);
        assert_eq!(kept.numeric_column(0), &[1.0, 3.0, 4.0]);
        assert_eq!(kept.nominal_column(0), &[0, 2, 1]);
        assert_eq!(kept.schema(), d.schema());
        assert!(d.retained(&[]).is_empty());
    }

    #[test]
    fn frequencies_and_popular_order() {
        let schema = Schema::new(vec![
            Dimension::numeric("x"),
            Dimension::nominal_with_labels("g", ["a", "b", "c"]),
        ])
        .unwrap();
        let d = Dataset::from_columns(schema, vec![vec![0.0; 6]], vec![vec![1, 1, 1, 2, 2, 0]])
            .unwrap();
        assert_eq!(d.nominal_value_frequencies(0), vec![1, 3, 2]);
        assert_eq!(d.values_by_frequency(0), vec![1, 2, 0]);
    }

    #[test]
    fn approximate_bytes_counts_cells() {
        let schema = Schema::new(vec![
            Dimension::numeric("x"),
            Dimension::nominal_with_labels("g", ["a"]),
        ])
        .unwrap();
        let d = Dataset::from_columns(schema, vec![vec![0.0; 10]], vec![vec![0; 10]]).unwrap();
        assert_eq!(d.approximate_bytes(), 10 * 8 + 10 * 2);
    }

    #[test]
    fn empty_dataset() {
        let d = Dataset::empty(schema());
        assert!(d.is_empty());
        assert_eq!(d.point_ids().count(), 0);
    }
}
