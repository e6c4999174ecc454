//! Synthetic SAL census data.
//!
//! The paper's evaluation (Section VII) uses SAL, an IPUMS extract of 700k
//! American census records with 9 discrete attributes — *Age, Gender,
//! Education, Birthplace, Occupation, Race, Work-class, Marital-status* as
//! QI attributes and *Income* (a 50-bracket domain, bracket `i` covering
//! `[2000·i, 2000·(i+1))` dollars) as the sensitive attribute.
//!
//! The raw extract is not redistributable, so this module provides a seeded
//! synthetic generator with the same schema, the same domain sizes, and
//! planted statistical dependencies: income depends strongly on education
//! and occupation, moderately on age, work-class, and gender, and weakly on
//! everything else. The dependencies are what the experiments exercise — a
//! decision tree over the QI attributes must beat the majority baseline by a
//! wide margin (the `optimistic` curve), while a tree over uniformly
//! randomized labels learns nothing (the `pessimistic` curve).
//!
//! Every categorical domain ships a generalization taxonomy mirroring the
//! semantics (states → census regions, occupations → collar groups, …), so
//! the generalization phase has realistic hierarchies to work with.

use crate::schema::{Attribute, Role, Schema};
use crate::table::{OwnerId, Table};
use crate::taxonomy::{Spec, Taxonomy};
use crate::value::{Domain, Value};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Number of income brackets (`|U^s|` in the paper's evaluation).
pub const INCOME_BRACKETS: u32 = 50;

/// Column positions of the SAL schema, in order.
pub mod col {
    /// Age, ordered 17..=90.
    pub const AGE: usize = 0;
    /// Gender, nominal.
    pub const GENDER: usize = 1;
    /// Education attainment, ordered 17 levels.
    pub const EDUCATION: usize = 2;
    /// Birthplace, 51 states/districts grouped into 4 census regions.
    pub const BIRTHPLACE: usize = 3;
    /// Occupation, 25 codes grouped into 3 collar groups.
    pub const OCCUPATION: usize = 4;
    /// Race, 9 codes.
    pub const RACE: usize = 5;
    /// Work-class, 9 codes grouped into 4 sectors.
    pub const WORKCLASS: usize = 6;
    /// Marital status, 6 codes.
    pub const MARITAL: usize = 7;
    /// Income (sensitive), 50 brackets of $2000.
    pub const INCOME: usize = 8;
}

const AGE_MIN: i64 = 17;
const AGE_MAX: i64 = 90;

fn education_labels() -> Vec<String> {
    [
        "None", "Grade1-4", "Grade5-6", "Grade7-8", "Grade9", "Grade10", "Grade11", "Grade12",
        "HS-grad", "Some-college", "Assoc-voc", "Assoc-acdm", "Bachelors", "Masters",
        "Prof-school", "Doctorate", "Post-doc",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect()
}

fn birthplace_spec() -> Spec {
    let region = |name: &str, states: &[&str]| {
        Spec::group(name, states.iter().map(|s| Spec::leaf(*s)).collect())
    };
    Spec::group(
        "USA",
        vec![
            region(
                "Northeast",
                &["CT", "ME", "MA", "NH", "NJ", "NY", "PA", "RI", "VT"],
            ),
            region(
                "Midwest",
                &["IL", "IN", "IA", "KS", "MI", "MN", "MO", "NE", "ND", "OH", "SD", "WI"],
            ),
            region(
                "South",
                &[
                    "AL", "AR", "DC", "DE", "FL", "GA", "KY", "LA", "MD", "MS", "NC", "OK", "SC",
                    "TN", "TX", "VA", "WV",
                ],
            ),
            region(
                "West",
                &[
                    "AK", "AZ", "CA", "CO", "HI", "ID", "MT", "NV", "NM", "OR", "UT", "WA", "WY",
                ],
            ),
        ],
    )
}

fn occupation_spec() -> Spec {
    let group = |name: &str, jobs: &[&str]| {
        Spec::group(name, jobs.iter().map(|j| Spec::leaf(*j)).collect())
    };
    Spec::group(
        "Any-occupation",
        vec![
            group(
                "White-collar",
                &[
                    "Exec-managerial", "Prof-specialty", "Tech-support", "Sales",
                    "Adm-clerical", "Finance", "Legal", "Medical",
                ],
            ),
            group(
                "Skilled",
                &[
                    "Craft-repair", "Machine-op", "Transport", "Precision-prod",
                    "Protective-serv", "Installation", "Construction", "Extraction",
                ],
            ),
            group(
                "Service-manual",
                &[
                    "Other-service", "Handlers-cleaners", "Farming-fishing", "Priv-house-serv",
                    "Food-prep", "Grounds", "Personal-care", "Helpers", "Armed-Forces",
                ],
            ),
        ],
    )
}

fn race_spec() -> Spec {
    Spec::group(
        "Any-race",
        vec![
            Spec::leaf("White"),
            Spec::leaf("Black"),
            Spec::group(
                "Asian-Pacific",
                vec![
                    Spec::leaf("Asian-Indian"),
                    Spec::leaf("Chinese"),
                    Spec::leaf("Japanese"),
                    Spec::leaf("Other-Asian"),
                    Spec::leaf("Pacific-Islander"),
                ],
            ),
            Spec::leaf("Amer-Indian"),
            Spec::leaf("Other"),
        ],
    )
}

fn workclass_spec() -> Spec {
    Spec::group(
        "Any-workclass",
        vec![
            Spec::group("Private-sector", vec![Spec::leaf("Private"), Spec::leaf("Contract")]),
            Spec::group("Self-employed", vec![Spec::leaf("Self-emp-inc"), Spec::leaf("Self-emp-not-inc")]),
            Spec::group(
                "Government",
                vec![Spec::leaf("Federal-gov"), Spec::leaf("State-gov"), Spec::leaf("Local-gov")],
            ),
            Spec::group("Other-workclass", vec![Spec::leaf("Without-pay"), Spec::leaf("Never-worked")]),
        ],
    )
}

fn marital_spec() -> Spec {
    Spec::group(
        "Any-marital",
        vec![
            Spec::group(
                "Married",
                vec![Spec::leaf("Married-civ"), Spec::leaf("Married-AF")],
            ),
            Spec::group(
                "Was-married",
                vec![Spec::leaf("Divorced"), Spec::leaf("Separated"), Spec::leaf("Widowed")],
            ),
            Spec::group("Single", vec![Spec::leaf("Never-married")]),
        ],
    )
}

fn income_labels() -> Vec<String> {
    (0..INCOME_BRACKETS)
        .map(|i| format!("[{},{})", i * 2000, (i + 1) * 2000))
        .collect()
}

/// Builds the 9-attribute SAL schema (8 QI attributes + sensitive Income).
// Statically-valid constant: the spec is a compile-time literal, so the
// expect can never fire; the clippy panic gate exempts it deliberately.
#[allow(clippy::expect_used)]
pub fn schema() -> Schema {
    Schema::new(vec![
        Attribute::quasi("Age", Domain::int_range(AGE_MIN, AGE_MAX)),
        Attribute::quasi("Gender", Domain::nominal(["M", "F"])),
        Attribute::quasi("Education", Domain::ordered(education_labels())),
        Attribute::quasi("Birthplace", Domain::nominal(birthplace_spec().leaf_labels())),
        Attribute::quasi("Occupation", Domain::nominal(occupation_spec().leaf_labels())),
        Attribute::quasi("Race", Domain::nominal(race_spec().leaf_labels())),
        Attribute::quasi("Work-class", Domain::nominal(workclass_spec().leaf_labels())),
        Attribute::quasi("Marital-status", Domain::nominal(marital_spec().leaf_labels())),
        Attribute::new("Income", Role::Sensitive, Domain::ordered(income_labels())),
    ])
    .expect("SAL schema is statically valid")
}

/// Generalization taxonomies for the 8 QI attributes, indexed by QI position
/// (i.e. aligned with `schema().qi_indices()`).
// Statically-valid constant: the spec is a compile-time literal, so the
// expect can never fire; the clippy panic gate exempts it deliberately.
#[allow(clippy::expect_used)]
pub fn qi_taxonomies() -> Vec<Taxonomy> {
    let age = Taxonomy::intervals((AGE_MAX - AGE_MIN + 1) as u32, 4);
    let gender = Taxonomy::flat(2);
    let education = Taxonomy::intervals(17, 4);
    let birthplace = Taxonomy::from_spec(&birthplace_spec()).expect("static spec");
    let occupation = Taxonomy::from_spec(&occupation_spec()).expect("static spec");
    let race = Taxonomy::from_spec(&race_spec()).expect("static spec");
    let workclass = Taxonomy::from_spec(&workclass_spec()).expect("static spec");
    let marital = Taxonomy::from_spec(&marital_spec()).expect("static spec");
    vec![age, gender, education, birthplace, occupation, race, workclass, marital]
}

/// The paper's income categorization for decision-tree mining: `m = 2`
/// yields categories `[0,24]`, `[25,49]`; `m = 3` refines the wealthier
/// category into `[25,36]`, `[37,49]`. Returns the category index of an
/// income bracket code, or `None` for an unsupported `m`.
pub fn income_category(bracket: Value, m: u32) -> Option<u32> {
    let b = bracket.code();
    match m {
        2 => Some(if b <= 24 { 0 } else { 1 }),
        3 => Some(if b <= 24 {
            0
        } else if b <= 36 {
            1
        } else {
            2
        }),
        _ => None,
    }
}

/// Upper bounds (inclusive) of the income categories for a supported `m`.
pub fn income_category_bounds(m: u32) -> Option<Vec<u32>> {
    match m {
        2 => Some(vec![24, 49]),
        3 => Some(vec![24, 36, 49]),
        _ => None,
    }
}

/// Configuration of the synthetic generator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SalConfig {
    /// Number of rows to generate (the paper uses 700k; experiments in this
    /// repository default to a smaller table for runtime reasons and scale
    /// up via CLI flags).
    pub rows: usize,
    /// RNG seed; equal seeds generate identical tables.
    pub seed: u64,
}

impl Default for SalConfig {
    fn default() -> Self {
        SalConfig { rows: 100_000, seed: 0x5A1_CE25 }
    }
}

fn sample_weighted(rng: &mut StdRng, weights: &[f64]) -> usize {
    let total: f64 = weights.iter().sum();
    debug_assert!(total > 0.0);
    let mut x = rng.gen::<f64>() * total;
    for (i, &w) in weights.iter().enumerate() {
        x -= w;
        if x <= 0.0 {
            return i;
        }
    }
    weights.len() - 1
}

/// Approximate standard normal via the sum of 12 uniforms (Irwin–Hall).
fn std_normal(rng: &mut StdRng) -> f64 {
    (0..12).map(|_| rng.gen::<f64>()).sum::<f64>() - 6.0
}

/// Generates a synthetic SAL table. Deterministic for a fixed config.
///
/// ```
/// use acpp_data::sal::{self, SalConfig};
///
/// let table = sal::generate(SalConfig { rows: 100, seed: 1 });
/// assert_eq!(table.len(), 100);
/// assert_eq!(table.schema().qi_arity(), 8);
/// assert_eq!(table.schema().sensitive().name(), "Income");
/// ```
pub fn generate(cfg: SalConfig) -> Table {
    let schema = schema();
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut table = Table::with_capacity(schema.clone(), cfg.rows);

    // Age weights: working-age bulge.
    let age_span = (AGE_MAX - AGE_MIN + 1) as usize;
    let age_weights: Vec<f64> = (0..age_span)
        .map(|c| {
            let age = AGE_MIN as f64 + c as f64;
            if age < 25.0 {
                2.0
            } else if age < 55.0 {
                3.0
            } else if age < 70.0 {
                2.0
            } else {
                0.8
            }
        })
        .collect();

    let mut row = vec![Value(0); schema.arity()];
    for i in 0..cfg.rows {
        let age_code = sample_weighted(&mut rng, &age_weights) as u32;
        let age = AGE_MIN as f64 + age_code as f64;
        let gender = rng.gen_range(0..2u32);

        // Education: peaked at HS-grad..Bachelors; the young haven't finished
        // advanced degrees yet.
        let mut edu_weights = vec![
            0.3, 0.4, 0.5, 0.8, 0.8, 1.0, 1.2, 1.6, 6.0, 4.0, 1.5, 1.5, 4.5, 1.8, 0.5, 0.4, 0.1,
        ];
        if age < 22.0 {
            for w in edu_weights.iter_mut().skip(12) {
                *w *= 0.05;
            }
        } else if age < 26.0 {
            for w in edu_weights.iter_mut().skip(13) {
                *w *= 0.2;
            }
        }
        let education = sample_weighted(&mut rng, &edu_weights) as u32;

        // Occupation group probability shifts with education.
        // Groups: white-collar codes 0..8, skilled 8..16, service 16..25.
        let edu_f = education as f64;
        let w_white = 0.3 + 0.22 * edu_f;
        let w_skilled = 2.2 - 0.06 * edu_f;
        let w_service = 2.0 - 0.08 * edu_f;
        let group = sample_weighted(&mut rng, &[w_white.max(0.05), w_skilled.max(0.05), w_service.max(0.05)]);
        let occupation = match group {
            0 => rng.gen_range(0..8u32),
            1 => 8 + rng.gen_range(0..8u32),
            _ => 16 + rng.gen_range(0..9u32),
        };

        // Race: skewed marginal, independent of the rest.
        let race = sample_weighted(
            &mut rng,
            &[72.0, 12.0, 1.5, 1.8, 0.9, 2.2, 0.4, 0.9, 2.3],
        ) as u32;

        // Birthplace: roughly proportional to region populations; a touch of
        // association with race keeps the joint distribution non-product.
        let region = sample_weighted(&mut rng, &[17.0, 21.0, 38.0, 24.0]);
        let birthplace = match region {
            0 => rng.gen_range(0..9u32),
            1 => 9 + rng.gen_range(0..12u32),
            2 => 21 + rng.gen_range(0..17u32),
            _ => 38 + rng.gen_range(0..13u32),
        };

        // Work-class depends on the occupation group.
        let workclass = match group {
            0 => sample_weighted(&mut rng, &[52.0, 6.0, 9.0, 7.0, 5.0, 7.0, 9.0, 0.5, 0.5]),
            1 => sample_weighted(&mut rng, &[62.0, 6.0, 4.0, 10.0, 2.0, 4.0, 7.0, 0.5, 0.5]),
            _ => sample_weighted(&mut rng, &[66.0, 5.0, 3.0, 6.0, 2.0, 4.0, 8.0, 3.0, 3.0]),
        } as u32;

        // Marital status driven by age.
        let marital = if age < 25.0 {
            sample_weighted(&mut rng, &[8.0, 0.5, 1.5, 1.0, 0.2, 30.0])
        } else if age < 60.0 {
            sample_weighted(&mut rng, &[55.0, 1.0, 11.0, 3.0, 2.0, 18.0])
        } else {
            sample_weighted(&mut rng, &[52.0, 1.0, 12.0, 2.0, 16.0, 6.0])
        } as u32;

        // Income bracket: a latent earnings score mapped onto 0..49.
        // Strong drivers: education, occupation group. Moderate: age curve
        // (earnings peak near 50), gender gap, work-class. Noise keeps the
        // classes overlapping, as in real census data.
        let occ_bonus = match group {
            0 => 8.0,
            1 => 3.5,
            _ => 0.0,
        };
        let age_curve = {
            let a = (age - 17.0) / 33.0; // ramps up to ~50
            6.5 * a.min(1.0) - if age > 62.0 { (age - 62.0) * 0.18 } else { 0.0 }
        };
        let gender_gap = if gender == 0 { 1.6 } else { 0.0 };
        let workclass_adj = match workclass {
            2 => 2.0,          // incorporated self-employed
            4 => 1.0,          // federal gov
            7 | 8 => -6.0,     // without pay / never worked
            _ => 0.0,
        };
        // The intercept keeps the "wealthy" (m = 2) class around 25–30% of
        // the population, mirroring the right skew of census income.
        let mu = -4.0 + 1.55 * edu_f + occ_bonus + age_curve + gender_gap + workclass_adj;
        let noise = std_normal(&mut rng) * 5.5;
        let bracket = (mu + noise).round().clamp(0.0, (INCOME_BRACKETS - 1) as f64) as u32;

        row[col::AGE] = Value(age_code);
        row[col::GENDER] = Value(gender);
        row[col::EDUCATION] = Value(education);
        row[col::BIRTHPLACE] = Value(birthplace);
        row[col::OCCUPATION] = Value(occupation);
        row[col::RACE] = Value(race);
        row[col::WORKCLASS] = Value(workclass);
        row[col::MARITAL] = Value(marital);
        row[col::INCOME] = Value(bracket);
        table.push_row_unchecked(OwnerId(i as u32), &row);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::{Histogram, Joint};

    #[test]
    fn schema_matches_paper_shape() {
        let s = schema();
        assert_eq!(s.arity(), 9);
        assert_eq!(s.qi_arity(), 8);
        assert_eq!(s.sensitive().name(), "Income");
        assert_eq!(s.sensitive_domain_size(), INCOME_BRACKETS);
        assert_eq!(s.attribute(col::BIRTHPLACE).domain().size(), 51);
        assert_eq!(s.attribute(col::OCCUPATION).domain().size(), 25);
        assert_eq!(s.attribute(col::RACE).domain().size(), 9);
        assert_eq!(s.attribute(col::WORKCLASS).domain().size(), 9);
        assert_eq!(s.attribute(col::MARITAL).domain().size(), 6);
        assert_eq!(s.attribute(col::EDUCATION).domain().size(), 17);
    }

    #[test]
    fn taxonomies_align_with_domains() {
        let s = schema();
        let taxes = qi_taxonomies();
        assert_eq!(taxes.len(), s.qi_arity());
        for (tax, &qi_col) in taxes.iter().zip(s.qi_indices()) {
            tax.check().unwrap();
            assert_eq!(tax.domain_size(), s.attribute(qi_col).domain().size(),
                "taxonomy/domain mismatch at column {qi_col}");
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let a = generate(SalConfig { rows: 500, seed: 7 });
        let b = generate(SalConfig { rows: 500, seed: 7 });
        let c = generate(SalConfig { rows: 500, seed: 8 });
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(a.len(), 500);
        assert!(a.owners_distinct());
    }

    #[test]
    fn all_values_in_domain() {
        let t = generate(SalConfig { rows: 2_000, seed: 1 });
        let s = t.schema();
        for row in t.rows() {
            for (c, attr) in s.attributes().iter().enumerate() {
                assert!(attr.domain().contains(t.value(row, c)));
            }
        }
    }

    #[test]
    fn income_depends_on_education() {
        let t = generate(SalConfig { rows: 30_000, seed: 2 });
        let j = Joint::of_columns(&t, col::EDUCATION, col::INCOME);
        let mi = j.mutual_information();
        assert!(mi > 0.25, "education/income mutual information too weak: {mi}");
        // Race should be (nearly) independent of income.
        let j2 = Joint::of_columns(&t, col::RACE, col::INCOME);
        assert!(j2.mutual_information() < 0.05);
    }

    #[test]
    fn income_classes_are_imbalanced_but_not_degenerate() {
        let t = generate(SalConfig { rows: 30_000, seed: 3 });
        let mut cat = Histogram::new(2);
        for row in t.rows() {
            cat.add(Value(income_category(t.sensitive_value(row), 2).unwrap()));
        }
        let p1 = cat.probability(Value(1));
        assert!(p1 > 0.10 && p1 < 0.60, "m=2 wealthy share out of range: {p1}");
    }

    #[test]
    fn income_category_bounds_match() {
        assert_eq!(income_category(Value(24), 2), Some(0));
        assert_eq!(income_category(Value(25), 2), Some(1));
        assert_eq!(income_category(Value(36), 3), Some(1));
        assert_eq!(income_category(Value(37), 3), Some(2));
        assert_eq!(income_category(Value(49), 3), Some(2));
        assert_eq!(income_category(Value(0), 4), None);
        assert_eq!(income_category_bounds(2), Some(vec![24, 49]));
        assert_eq!(income_category_bounds(3), Some(vec![24, 36, 49]));
        assert_eq!(income_category_bounds(7), None);
    }

    #[test]
    fn marginals_are_plausible() {
        let t = generate(SalConfig { rows: 20_000, seed: 4 });
        let gender = Histogram::of_column(&t, col::GENDER);
        let p_m = gender.probability(Value(0));
        assert!((p_m - 0.5).abs() < 0.05);
        let race = Histogram::of_column(&t, col::RACE);
        assert!(race.probability(Value(0)) > 0.5, "majority race share");
        let age = Histogram::of_column(&t, col::AGE);
        assert_eq!(age.distinct(), 74, "every age occurs in a 20k sample");
    }
}
