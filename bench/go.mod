module mlec/bench

go 1.24

require mlec v0.0.0

replace mlec => ../
