//! A hot root widens with `u64::from` beside a workspace `From` impl
//! that allocates. The call is the primitive's own conversion, so it
//! must not reach the workspace impl: the hot path allocates nothing.

pub struct DemoError {
    pub msg: String,
}

impl From<std::fmt::Error> for DemoError {
    fn from(e: std::fmt::Error) -> Self {
        DemoError { msg: e.to_string() }
    }
}

// mtm-hot: widen
pub fn widen(x: u32) -> u64 {
    u64::from(x) << 1
}
