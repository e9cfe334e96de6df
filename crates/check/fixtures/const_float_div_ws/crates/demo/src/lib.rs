//! Float divisions whose only float evidence is a module-level `const`
//! or `static`: none of them is an integer division site, so the empty
//! `[div_sites]` budget holds.

pub const LEARNING_RATE: f64 = 0.05;
pub static DECAY: f32 = 0.9;

fn first_moment() -> f64 {
    1.5
}

fn second_moment() -> f64 {
    4.0
}

fn steps() -> f32 {
    3.0
}

pub fn adam_step() -> f64 {
    LEARNING_RATE * first_moment() / (second_moment().sqrt())
}

pub fn decay_per_step() -> f32 {
    DECAY / steps()
}
