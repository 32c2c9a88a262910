module abstractbft/bench

go 1.24

require abstractbft v0.0.0

replace abstractbft => ../
