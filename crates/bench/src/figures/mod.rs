//! Every paper figure/table as runner jobs.
//!
//! Each figure is a small job graph: **leaf** jobs compute one slice of
//! the sweep (one packet size, one YCSB mix, one PC application …) and
//! return their table rows as an artifact; the figure's **merge** job
//! (named after the figure, e.g. `fig12`) depends on all its leaves and
//! assembles the console table plus the `results/` JSON. The `repro`
//! binary runs them all, or one group with `--only <figure>`.

pub(crate) mod ablation;
pub(crate) mod fig03;
pub(crate) mod fig04;
pub(crate) mod fig08;
pub(crate) mod fig09;
pub(crate) mod fig10;
pub(crate) mod fig11;
pub(crate) mod fig12;
pub(crate) mod fig13;
pub(crate) mod fig14;
pub(crate) mod fig15;
pub(crate) mod table1;
pub(crate) mod table2;

use crate::report::FigureReport;
use iat_runner::JobCtx;
use serde_json::{json, Value};

/// Encodes a leaf's `(table cells, JSON record)` rows as its artifact.
pub(crate) fn rows_artifact(rows: Vec<(Vec<String>, Value)>) -> Value {
    Value::Array(
        rows.into_iter()
            .map(|(cells, record)| json!({ "cells": cells, "record": record }))
            .collect(),
    )
}

/// Decodes a [`rows_artifact`] back into rows.
pub(crate) fn rows_from(artifact: &Value) -> Vec<(Vec<String>, Value)> {
    artifact
        .as_array()
        .expect("rows artifact")
        .iter()
        .map(|r| {
            let cells = r["cells"]
                .as_array()
                .expect("cells")
                .iter()
                .map(|c| c.as_str().expect("cell").to_owned())
                .collect();
            (cells, r["record"].clone())
        })
        .collect()
}

/// Folds the rows of `leaves` (in the given order) into `fig`.
pub(crate) fn merge_rows(fig: &mut FigureReport, ctx: &JobCtx, leaves: &[String]) {
    for leaf in leaves {
        for (cells, record) in rows_from(ctx.dep(leaf)) {
            fig.row(&cells, record);
        }
    }
}
