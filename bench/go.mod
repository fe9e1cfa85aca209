module crafty/bench

go 1.24

require crafty v0.0.0

replace crafty => ../
