//! Plan execution: the generic worst-case optimal join (paper Algorithm
//! 1), the two-pass GHD driver (§II-C), and the operands both read.

mod generic;
mod relation;
mod run;

pub(crate) use relation::relation;
pub(crate) use run::execute_plan;
