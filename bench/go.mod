module auragen/bench

go 1.22

require auragen v0.0.0

replace auragen => ../
