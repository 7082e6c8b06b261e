module spq/bench

go 1.24

require spq v0.0.0

replace spq => ../
