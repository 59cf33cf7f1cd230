module gallium/bench

go 1.22

require gallium v0.0.0

replace gallium => ../
